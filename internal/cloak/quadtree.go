package cloak

import (
	"repro/internal/geo"
	"repro/internal/privacy"
	"repro/internal/pyramid"
)

// Quadtree is the space-dependent cloaker of Figure 4a (the
// Gruteser–Grunwald lineage cited by the paper): starting from the whole
// space, it keeps descending into the quadrant containing the user for as
// long as that quadrant still satisfies the privacy requirement, and
// returns the last satisfying quadrant.
//
// Because every returned region is a cell of a fixed space partition —
// independent of where inside the cell the user stands — no reverse
// engineering can narrow the user's position beyond the cell itself.
type Quadtree struct {
	Pyr *pyramid.Pyramid
}

// Name implements Cloaker.
func (q *Quadtree) Name() string { return "quadtree" }

// Cloak implements Cloaker. The user is expected to be tracked by the
// pyramid (her own count contributes to every cell on her root path).
func (q *Quadtree) Cloak(id uint64, loc geo.Point, req privacy.Requirement) Result {
	best := pyramid.Cell{} // root
	for level := 1; level < q.Pyr.Height(); level++ {
		child := q.Pyr.CellAt(level, loc)
		if q.Pyr.Count(child) < req.K {
			break
		}
		if q.Pyr.CellArea(level) < req.MinArea {
			break
		}
		best = child
	}
	region := q.Pyr.Rect(best)
	return finish(region, q.Pyr.Count(best), req)
}
