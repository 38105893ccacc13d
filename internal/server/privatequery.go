package server

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/geo"
	"repro/internal/trace"
)

// RangeMode selects how the private range query builds its candidate set
// (Section 6.2.1, Figure 5a).
type RangeMode uint8

const (
	// RangeRounded is the exact semantics: an object is a candidate iff its
	// distance to the *nearest* point of the cloaked region is ≤ radius —
	// the "rounded rectangle" of the paper.
	RangeRounded RangeMode = iota
	// RangeMBR over-approximates the rounded rectangle by its minimum
	// bounding rectangle (the region expanded by radius on every side), the
	// simplification the paper prescribes for a real implementation. The
	// candidate set is a superset of RangeRounded's.
	RangeMBR
)

// String implements fmt.Stringer.
func (m RangeMode) String() string {
	switch m {
	case RangeRounded:
		return "rounded"
	case RangeMBR:
		return "mbr"
	default:
		return fmt.Sprintf("rangemode(%d)", uint8(m))
	}
}

// PrivateRangeQuery is a private query over public data: "find all <class>
// objects within Radius of my location", issued with a cloaked region
// instead of the location.
type PrivateRangeQuery struct {
	Region geo.Rect
	Radius float64
	// Class filters stationary objects ("" = all classes + moving objects).
	Class string
	Mode  RangeMode
}

// validate checks the query parameters (shared with BatchQuery, so
// per-entry errors match PrivateRange's verbatim).
func (q PrivateRangeQuery) validate() error {
	if !q.Region.Valid() {
		return fmt.Errorf("server: invalid query region %v", q.Region)
	}
	if q.Radius < 0 || math.IsNaN(q.Radius) {
		return fmt.Errorf("server: invalid radius %g", q.Radius)
	}
	return nil
}

// filter is the rectangle the indices are probed with: the region's
// minimum bounding rectangle expanded by Radius on every side.
func (q PrivateRangeQuery) filter() geo.Rect { return q.Region.Expand(q.Radius) }

// PrivateRange executes the query and returns the candidate list: every
// public object that could be within Radius of *some* point of the region,
// in SortObjects order. The mobile user refines the list locally with
// RefineRange.
func (s *Server) PrivateRange(q PrivateRangeQuery) ([]PublicObject, error) {
	return s.PrivateRangeCtx(context.Background(), q)
}

// PrivateRangeCtx is PrivateRange under a context (trace): the range
// kernel on a group of one.
func (s *Server) PrivateRangeCtx(ctx context.Context, q PrivateRangeQuery) ([]PublicObject, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	sp, _ := trace.Start(ctx, s.tracer, "lbs_private_range")
	r := s.beginSingle(sp, s.met.latPrivateRange)
	entries := [1]BatchEntry{{Range: q}}
	var out [1]BatchItemResult
	s.mu.RLock()
	s.runRangeGroupLocked(entries[:], groupOfOne(q.filter()), out[:], r.sc)
	s.mu.RUnlock()
	if r.sp.Recording() {
		r.sp.SetAttrs(trace.Int("results", int64(len(out[0].Range))))
	}
	s.endSingle(ctx, r)
	return out[0].Range, nil
}

// PrivateNNQuery is a private nearest-neighbor query over public data:
// "find my nearest <class> object", issued with a cloaked region.
type PrivateNNQuery struct {
	Region geo.Rect
	// Class filters stationary objects ("" = all stationary classes).
	// Moving objects are excluded from NN queries: their answer would be
	// stale by the time the client refines it.
	Class string
}

// PrivateNNResult carries the candidate set and the filter statistics the
// experiments report.
type PrivateNNResult struct {
	// Candidates is guaranteed to contain the exact nearest neighbor of
	// every point of the query region (invariant I6).
	Candidates []PublicObject
	// SupersetSize is the candidate count before dominance pruning; the
	// difference to len(Candidates) measures what pruning buys (experiment
	// E5's ablation).
	SupersetSize int
}

// PrivateNN executes the query. The computation follows Figure 5b:
//
//  1. A sound superset via the min–max bound: browse objects by MinDist to
//     the region; any object whose MinDist exceeds T = min over seen
//     objects of MaxDist(object, region) can never be the nearest neighbor
//     of any point of the region (that minimizing object is closer
//     everywhere), so browsing stops there.
//  2. Pairwise bisector dominance pruning: object a is removed if some
//     object b is at least as close to *every* point of the region
//     (equivalently: to all four corners, since the half-plane of b's
//     bisector is convex). This eliminates objects like target A in
//     Figure 5b while provably never removing a true nearest neighbor.
func (s *Server) PrivateNN(q PrivateNNQuery) (PrivateNNResult, error) {
	return s.PrivateNNCtx(context.Background(), q)
}

// PrivateNNCtx is PrivateNN under a context (trace): the NN kernel on a
// group of one, pruned after the read lock is released.
func (s *Server) PrivateNNCtx(ctx context.Context, q PrivateNNQuery) (PrivateNNResult, error) {
	r, err := s.nnSingle(ctx, q)
	if err != nil {
		return PrivateNNResult{}, err
	}
	res := s.finishNN(q.Region, r.sc.parts[0], &r.sc.comb)
	if r.sp.Recording() {
		r.sp.SetAttrs(
			trace.Int("candidates", int64(len(res.Candidates))),
			trace.Int("superset", int64(res.SupersetSize)))
	}
	s.endSingle(ctx, r)
	return res, nil
}

// nnSingle runs the min–max half of one validated NN query; the caller
// finishes from r.sc.parts[0] and closes with endSingle.
func (s *Server) nnSingle(ctx context.Context, q PrivateNNQuery) (singleQuery, error) {
	if err := q.validate(); err != nil {
		return singleQuery{}, err
	}
	sp, _ := trace.Start(ctx, s.tracer, "lbs_private_nn")
	r := s.beginSingle(sp, s.met.latPrivateNN)
	entries := [1]BatchEntry{{NN: q}}
	s.mu.RLock()
	s.runNNGroupLocked(entries[:], groupOfOne(q.Region), r.sc)
	s.mu.RUnlock()
	return r, nil
}

// validate checks the query parameters (shared with BatchQuery).
func (q PrivateNNQuery) validate() error {
	if !q.Region.Valid() {
		return fmt.Errorf("server: invalid query region %v", q.Region)
	}
	return nil
}

// NNParts is the partial private-NN evaluation one data partition
// contributes: the objects that pass the local min–max filter, *unpruned*,
// plus the local bound they were filtered against. A single server is the
// degenerate case of one part over the whole dataset; the routing tier
// gathers one part per shard and finishes both through the same
// CombineNNParts, so the two paths cannot diverge. Candidates stay
// unpruned because the prune-or-not decision (maxPruneSet) depends on the
// *global* superset size, which no single partition knows.
type NNParts struct {
	// Bound is min MaxDist²(object, region) over every class-matching
	// object of the partition (+Inf when there is none).
	Bound float64
	// Candidates are the class-matching objects with
	// MinDist²(object, region) ≤ Bound. Their order is an index-traversal
	// artifact and carries no meaning: CombineNNParts sorts the union
	// canonically before anything downstream sees it.
	Candidates []PublicObject
}

// PrivateNNParts evaluates the shard-local half of a private NN query:
// the min–max browse without the global finalize. The routing tier calls
// this on every shard owning a tile of the query region and combines the
// parts with CombineNNParts.
func (s *Server) PrivateNNParts(q PrivateNNQuery) (NNParts, error) {
	return s.PrivateNNPartsCtx(context.Background(), q)
}

// PrivateNNPartsCtx is PrivateNNParts under a context (trace): the NN
// kernel on a group of one, its parts copied out of the scratch.
func (s *Server) PrivateNNPartsCtx(ctx context.Context, q PrivateNNQuery) (NNParts, error) {
	r, err := s.nnSingle(ctx, q)
	if err != nil {
		return NNParts{}, err
	}
	parts := r.sc.parts[0]
	parts.Candidates = append([]PublicObject(nil), parts.Candidates...) // nil when empty
	if r.sp.Recording() {
		r.sp.SetAttrs(trace.Int("superset", int64(len(parts.Candidates))))
	}
	s.endSingle(ctx, r)
	return parts, nil
}

// maxPruneSet bounds the O(n²) dominance prune: for pathological
// supersets (a near-world-sized cloak admits most of the dataset) pruning
// could not shrink the answer meaningfully anyway, so past this size the
// sound superset is returned directly.
const maxPruneSet = 2048

// CombineNNParts finishes a private NN query from partial evaluations
// (step 2 of Figure 5b): the global bound is the minimum of the parts'
// bounds, candidates are re-filtered against it, sorted canonically, and
// dominance-pruned. Called with one part it is exactly the sequential
// finalize; called with one part per shard it produces a bit-identical
// answer, because the global bound, the kept set, the prune decision and
// the pruned set are all functions of the union alone.
func CombineNNParts(region geo.Rect, parts ...NNParts) PrivateNNResult {
	return new(combineScratch).combine(region, parts...)
}

// combineScratch carries the reusable working set of the dominance prune.
// The kernel's callers hand one per worker so the prune's O(n) side arrays
// stop churning the heap on every query; the answer bytes are identical
// for any scratch contents.
type combineScratch struct {
	cands     []PublicObject
	cdist     [][4]float64
	totals    []float64
	order     []int
	frontier  []int
	dominated []bool
}

// combine is CombineNNParts over the receiver's buffers.
func (sc *combineScratch) combine(region geo.Rect, parts ...NNParts) PrivateNNResult {
	bound := math.Inf(1)
	for _, p := range parts {
		if p.Bound < bound {
			bound = p.Bound
		}
	}
	cands := sc.cands[:0]
	if len(parts) == 1 {
		// A single part's candidates are already its producer's min–max
		// filter output (every NNParts constructor — the NN kernel, a
		// remote shard running it — refilters against its own final
		// bound, which here IS the global bound),
		// so the distance test would keep everything.
		cands = append(cands, parts[0].Candidates...)
	} else {
		for _, p := range parts {
			for _, o := range p.Candidates {
				if geo.MinDist2(o.Loc, region) <= bound {
					cands = append(cands, o)
				}
			}
		}
	}
	sc.cands = cands
	SortObjects(cands)
	superset := len(cands)

	if superset > maxPruneSet {
		out := make([]PublicObject, len(cands))
		copy(out, cands)
		return PrivateNNResult{Candidates: out, SupersetSize: superset}
	}

	// The pairwise prune compares only corner distances, so compute each
	// candidate's four squared corner distances once instead of eight
	// Dist² evaluations per pair. Dominance b→a needs every corner of b at
	// most as close and one strictly closer, which forces
	// Σ corners(b) < Σ corners(a): a witness for a candidate can only sit
	// strictly before it in ascending total order. And because dominance
	// is transitive (coordinate-wise ≤ composes; strictness survives), a
	// dominated candidate always has an *undominated* dominator with a
	// strictly smaller total — so testing each candidate against the
	// running Pareto frontier alone reproduces the full pairwise scan's
	// dominated set at a fraction of the witness tests.
	corners := region.Corners()
	// Every cell below is (re)written before it is read, so growing the
	// scratch without clearing stale contents is safe.
	cdist := slices.Grow(sc.cdist[:0], len(cands))[:len(cands)]
	totals := slices.Grow(sc.totals[:0], len(cands))[:len(cands)]
	order := slices.Grow(sc.order[:0], len(cands))[:len(cands)]
	dominated := slices.Grow(sc.dominated[:0], len(cands))[:len(cands)]
	sc.cdist, sc.totals, sc.order, sc.dominated = cdist, totals, order, dominated
	for i, o := range cands {
		for k := range corners {
			cdist[i][k] = corners[k].Dist2(o.Loc)
		}
		totals[i] = cdist[i][0] + cdist[i][1] + cdist[i][2] + cdist[i][3]
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		switch {
		case totals[a] < totals[b]:
			return -1
		case totals[a] > totals[b]:
			return 1
		}
		return 0
	})
	frontier := sc.frontier[:0]
	for _, i := range order {
		dom := false
		for _, j := range frontier {
			// The frontier is in ascending-total order too; equal totals
			// cannot dominate (strictness), so stop at the candidate's own.
			if totals[j] >= totals[i] {
				break
			}
			if dominatesDist(cdist[j], cdist[i]) {
				dom = true
				break
			}
		}
		dominated[i] = dom
		if !dom {
			frontier = append(frontier, i)
		}
	}
	sc.frontier = frontier
	res := PrivateNNResult{SupersetSize: superset}
	if len(frontier) > 0 {
		// The frontier holds exactly the undominated candidates, so the
		// answer (which escapes) is sized exactly instead of grown.
		res.Candidates = make([]PublicObject, 0, len(frontier))
		for i, o := range cands {
			if !dominated[i] {
				res.Candidates = append(res.Candidates, o)
			}
		}
	}
	return res
}

// dominatesDist reports, over precomputed squared corner distances,
// whether object b is at least as close as object a to every corner (hence
// every point) of the region, and strictly closer to at least one corner.
// Co-located objects never dominate each other, so a true nearest neighbor
// always survives.
func dominatesDist(db, da [4]float64) bool {
	strict := false
	for k := range db {
		if db[k] > da[k] {
			return false
		}
		if db[k] < da[k] {
			strict = true
		}
	}
	return strict
}
