package router_test

import (
	"fmt"
	"testing"

	"repro/internal/geo"
	"repro/internal/server"
)

// TestBoundaryTouchingCountsRoutedEqualsSingle: regions are placed on the
// owners of the tiles they overlap with positive area, so a region that
// only touches a shard boundary lives on one side of it. Counts whose
// query touches, runs along or barely crosses such a boundary must still
// be bit-identical routed and direct, over the four quadrant shards and
// over shard counts whose boundaries fall elsewhere.
func TestBoundaryTouchingCountsRoutedEqualsSingle(t *testing.T) {
	regions := []geo.Rect{
		geo.R(0.25, 0.25, 0.5, 0.5),     // corner on the centre
		geo.R(0.5, 0.25, 0.75, 0.5),     // its neighbour across x = 0.5
		geo.R(0.375, 0.5, 0.5, 0.625),   // touches both boundaries
		geo.R(0.5, 0.5, 0.5625, 0.5625), // the centre's other side
		geo.R(0, 0, 0.5, 1),             // the whole left half
		geo.R(0.5, 0.2, 0.5, 0.3),       // segment on the boundary
		geo.PointRect(geo.Pt(0.5, 0.5)), // point on the centre
		geo.PointRect(geo.Pt(0.5, 0.8)),
		geo.R(0.9, 0.4, 1.2, 0.45), // hangs past the world edge
		geo.R(1, 0.6, 1.3, 0.7),    // outside, touching the edge
	}
	queries := []geo.Rect{
		geo.R(0.5, 0.25, 0.75, 0.5), // touches the first region only
		geo.R(0.5, 0, 1, 1),         // the right half: touches the left half
		geo.R(0.5, 0, 0.5, 1),       // the boundary itself
		geo.PointRect(geo.Pt(0.5, 0.5)),
		geo.R(0.49, 0.49, 0.51, 0.51), // barely crosses the centre
		geo.R(0.5, 0.5, 1, 1),
		geo.R(0, 0.5, 1, 0.5),
		geo.R(1, 0, 1, 1),         // the world's right edge
		geo.R(1.1, 0.4, 1.2, 0.5), // outside the world, over the hanging region
		geo.R(1, 0.6, 1.1, 0.65),  // outside, touching the edge
		geo.R(0, 0, 1, 1),
	}
	for _, n := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			single := startSingle(t)
			defer single.Close()
			routed := startRouted(t, n)
			defer routed.Close()
			d := &duo{t: t, single: single.cli, routed: routed.cli}
			for i, r := range regions {
				d.updatePrivate(uint64(i+1), r)
			}
			d.stats()
			var entries []server.BatchEntry
			for _, q := range queries {
				d.publicCount(q)
				entries = append(entries, server.BatchEntry{Kind: server.BatchPublicCount,
					Count: server.PublicRangeCountQuery{Query: q}})
			}
			d.batch(entries)
			// Move every region across the boundary and back: departures
			// must withdraw the replicas the new placement no longer needs.
			for i, r := range regions {
				d.updatePrivate(uint64(i+1), geo.RectAround(r.Center(), 0.01))
				d.updatePrivate(uint64(i+1), r)
			}
			for _, q := range queries {
				d.publicCount(q)
			}
		})
	}
}
