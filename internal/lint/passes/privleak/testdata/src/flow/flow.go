// Package fixture exercises the privleak taint pass: exact locations
// flowing into wire encodes, logs, and metrics.
package fixture

import (
	"fmt"
	"log"

	"repro/internal/codec"
	"repro/internal/geo"
	"repro/internal/obs"
)

// exact models the wire-ingress decode of a user's exact location.
//
//lint:source fixture wire ingress
func exact() geo.Point { return geo.Point{X: 1, Y: 2} }

func leakDirect(e *codec.Encoder) {
	loc := exact()
	e.Point(loc) // want "exact location reaches wire sink Encoder.Point"
}

func leakLog() {
	loc := exact()
	log.Printf("user at %v", loc) // want "reaches log sink log.Printf"
}

func leakMetricLabel(r *obs.Registry) {
	loc := exact()
	cell := fmt.Sprintf("%.0f:%.0f", loc.X, loc.Y)
	r.Counter("fixture_updates_total", "", obs.L("cell", cell)) // want "metrics sink"
}

func leakGauge(g *obs.Gauge) {
	loc := exact()
	g.Set(loc.X) // want "metrics sink Gauge.Set"
}

// wrap launders the value through a helper; the summary must carry the
// taint from parameter to result.
func wrap(p geo.Point) geo.Point { return p }

func leakViaHelper(e *codec.Encoder) {
	e.Point(wrap(exact())) // want "wire sink Encoder.Point"
}

// encodeAt receives taint from its caller (phase B propagation).
func encodeAt(e *codec.Encoder, p geo.Point) {
	e.Point(p) // want "wire sink Encoder.Point"
}

func callEncodeAt(e *codec.Encoder) {
	encodeAt(e, exact())
}

func leakGoroutine() {
	loc := exact()
	go func() {
		log.Println(loc) // want "reaches log sink log.Println"
	}()
}

func leakStruct(e *codec.Encoder) {
	type update struct {
		ID  uint64
		Loc geo.Point
	}
	u := update{ID: 7, Loc: exact()}
	e.F64(u.Loc.X) // want "wire sink Encoder.F64"
}

func emptyJustification(e *codec.Encoder) {
	r := cloak(exact()) //lint:sanitized
	// want "requires a justification"
	e.Rect(r)
}

func cloak(p geo.Point) geo.Rect {
	return geo.R(p.X-1, p.Y-1, p.X+1, p.Y+1)
}
