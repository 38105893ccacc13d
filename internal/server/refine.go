package server

import (
	"math"
	"sort"

	"repro/internal/geo"
)

// The refinement step runs on the mobile user's device (Section 6.2.1): the
// server returns a candidate list computed from the cloaked region, and the
// client — which knows its own exact location — filters the candidates
// locally. The functions here are pure and allocation-light, matching the
// paper's "limited computation and storage capability of mobile users".

// RefineRange returns the candidates actually within radius of the exact
// location, sorted by increasing distance — the final answer of a private
// range query.
func RefineRange(exact geo.Point, radius float64, candidates []PublicObject) []PublicObject {
	r2 := radius * radius
	out := make([]PublicObject, 0, len(candidates))
	for _, c := range candidates {
		if exact.Dist2(c.Loc) <= r2 {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		di, dj := exact.Dist2(out[i].Loc), exact.Dist2(out[j].Loc)
		if di != dj {
			return di < dj
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// RefineNN returns the candidate nearest to the exact location — the final
// answer of a private nearest-neighbor query — and false when the candidate
// list is empty. Distance ties break toward the lower ID so refinement is
// deterministic.
func RefineNN(exact geo.Point, candidates []PublicObject) (PublicObject, bool) {
	if len(candidates) == 0 {
		return PublicObject{}, false
	}
	best := candidates[0]
	bestD := exact.Dist2(best.Loc)
	for _, c := range candidates[1:] {
		d := exact.Dist2(c.Loc)
		if d < bestD || (d == bestD && c.ID < best.ID) {
			best, bestD = c, d
		}
	}
	return best, true
}

// TransmissionCost estimates the answer-transfer cost of a candidate list
// in bytes, the quality-of-service proxy of experiment E4/E5 (each object:
// id + two float64 coordinates + a small class tag).
func TransmissionCost(candidates []PublicObject) int {
	cost := 0
	for _, c := range candidates {
		cost += 8 + 16 + len(c.Class)
	}
	return cost
}

// CandidateCompleteness verifies invariant I6 empirically: it samples an
// n×n lattice of positions inside the region, computes the true nearest
// object by brute force over all objects, and reports whether every true
// nearest neighbor appears in the candidate set. Tests and experiments use
// it as ground truth; it is O(n²·|all|) and not meant for production paths.
func CandidateCompleteness(region geo.Rect, n int, candidates, all []PublicObject) bool {
	if n < 2 {
		n = 2
	}
	inCand := make(map[uint64]bool, len(candidates))
	for _, c := range candidates {
		inCand[c.ID] = true
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p := geo.Pt(
				region.Min.X+region.Width()*float64(i)/float64(n-1),
				region.Min.Y+region.Height()*float64(j)/float64(n-1),
			)
			bestID := uint64(0)
			bestD := math.Inf(1)
			for _, o := range all {
				if d := p.Dist2(o.Loc); d < bestD {
					bestD, bestID = d, o.ID
				}
			}
			if bestID != 0 && !inCand[bestID] {
				return false
			}
		}
	}
	return true
}
