package trace

import (
	"context"
	"time"

	"repro/internal/obs"
)

type ctxKey struct{}

// NewContext returns ctx carrying sc.
func NewContext(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, ctxKey{}, sc)
}

// FromContext extracts the span context carried by ctx, if any.
func FromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(ctxKey{}).(SpanContext)
	return sc, ok
}

// Start opens a child span under the context's current span and returns
// a derived context with the new span installed as parent. When ctx
// carries no sampled trace (or t is nil) it returns an inert span and
// ctx unchanged — the one-liner instrumentation sites rely on this:
//
//	sp, ctx := trace.Start(ctx, t, "anon_cloak")
//	defer sp.End()
func Start(ctx context.Context, t *Tracer, name string) (Span, context.Context) {
	sc, ok := FromContext(ctx)
	if !ok || !sc.Sampled() {
		return Span{}, ctx
	}
	sp := t.StartSpan(sc, name)
	if !sp.Recording() {
		return Span{}, ctx
	}
	return sp, NewContext(ctx, sp.Context())
}

// Stage is a pipeline stage declared once: a span name bound to the
// latency histogram every span of that name feeds. Its spans are the
// stage's one instrumentation site — End observes the histogram, so the
// call site times nothing itself.
type Stage struct {
	name string
	hist *obs.Histogram
}

// NewStage binds the span name to hist. It panics on a name that is not
// snake_case, so a bad stage name fails where it is declared.
func NewStage(name string, hist *obs.Histogram) Stage {
	mustName(name)
	return Stage{name: name, hist: hist}
}

// Start opens the stage's span as trace.Start does. The span is timed even
// when it is inert, so it must always be ended; an inert stage span still
// allocates nothing.
//
//	sp, ctx := stage.Start(ctx, t)
//	defer sp.End()
func (st Stage) Start(ctx context.Context, t *Tracer) (Span, context.Context) {
	sp, ctx := Start(ctx, t, st.name)
	if sp.rec == nil {
		sp.start = time.Now()
	}
	sp.hist = st.hist
	return sp, ctx
}
