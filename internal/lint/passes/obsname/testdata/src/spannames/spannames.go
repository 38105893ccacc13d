// Package fixture exercises the obsname pass's span-name checks across
// all four name-introducing forms: Tracer.StartRoot, Tracer.StartSpan,
// the package-level trace.Start helper, and a trace.NewStage declaration.
// Metrics and spans share one namespace, so the span family must match
// the package's metric family.
package fixture

import (
	"context"

	"repro/internal/obs"
	"repro/internal/trace"
)

var dynamicSpan = "fixture_dynamic"

func spans(tr *trace.Tracer, reg *obs.Registry, ctx context.Context, sc trace.SpanContext) {
	reg.Counter("fixture_requests_total", "Requests.")

	root := tr.StartRoot("fixture_request")
	serve := tr.StartSpan(sc, "fixture_serve")
	call, ctx2 := trace.Start(ctx, tr, "fixture_call")

	tr.StartRoot("Fixture_Bad_Span")    // want "not snake_case"
	tr.StartSpan(sc, "fixture-serve-2") // want "not snake_case"

	tr.StartRoot("fixture_request") // want "already introduced in this package"

	tr.StartRoot(dynamicSpan) // want "must be a string literal"

	other, _ := trace.Start(ctx2, tr, "alien_stage") // want "outside this package"

	lat := reg.Histogram("fixture_stage_seconds", "Stage latency.", nil)
	stage := trace.NewStage("fixture_stage", lat)
	trace.NewStage("fixture_call", lat)     // want "already introduced in this package"
	trace.NewStage("alien_stage_twin", lat) // want "outside this package"
	trace.NewStage("fixture_stage", lat)    // want "already introduced in this package"
	staged, _ := stage.Start(ctx2, tr)

	staged.End()
	other.End()
	call.End()
	serve.End()
	root.End()
}
