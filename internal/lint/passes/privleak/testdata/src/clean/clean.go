// Package fixture is the privleak negative case: every exact-location
// flow crosses a declared boundary, so the pass must stay silent.
package fixture

import (
	"log"

	"repro/internal/codec"
	"repro/internal/geo"
)

// exact models the wire-ingress decode of a user's exact location.
//
//lint:source fixture wire ingress
func exact() geo.Point { return geo.Point{X: 1, Y: 2} }

func cloak(p geo.Point) geo.Rect {
	return geo.R(p.X-1, p.Y-1, p.X+1, p.Y+1)
}

func cloaked(e *codec.Encoder) {
	loc := exact()
	r := cloak(loc) //lint:sanitized fixture boundary: k-anonymous rect replaces the point
	e.Rect(r)
}

// sendOwn is the user-side client encoding the user's own location
// toward the trusted anonymizer tier.
//
//lint:trusted-ingress fixture user-side client
func sendOwn(e *codec.Encoder) {
	e.Point(exact())
}

func logsNothingPrivate(id uint64) {
	log.Printf("user %d connected", id)
}

func publicPoint(e *codec.Encoder) {
	e.Point(geo.Point{X: 3, Y: 4})
}
