// Package fixture exercises privleak's directive checks: a typo'd verb
// declares nothing, so the invariant it meant to declare would go
// unchecked without a word; it must be loud instead.
package fixture

import (
	"repro/internal/codec"
	"repro/internal/geo"
)

// exact models the wire-ingress decode of a user's exact location.
//
//lint:source fixture wire ingress
func exact() geo.Point { return geo.Point{X: 1, Y: 2} }

// cached meant to be a second source; misspelled, it seeds no taint.
//
//lint:sorce fixture cache of exact locations // want "unknown //lint: verb .sorce."
func cached() geo.Point { return geo.Point{X: 3, Y: 4} }

func cloak(p geo.Point) geo.Rect {
	return geo.R(p.X-1, p.Y-1, p.X+1, p.Y+1)
}

func send(e *codec.Encoder) {
	r := cloak(exact()) //lint:santized fixture boundary // want "unknown //lint: verb .santized."
	e.Rect(r)           // want "wire sink Encoder.Rect"
	e.Point(cached())
}
