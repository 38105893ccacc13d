package server

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/geo"
	"repro/internal/rtree"
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
// answer under the private_range class span.
func (s *Server) PrivateRangeCtx(ctx context.Context, q PrivateRangeQuery) ([]PublicObject, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	r := s.beginSingle(ctx, s.met.privateRange)
	objs, _ := s.answerRange(q, r.sc)
	if r.sp.Recording() {
		r.sp.SetAttrs(trace.Int("results", int64(len(objs))))
	}
	s.endSingle(r)
	return objs, nil
}

// answerRange answers one validated private range query, asked alone or
// as a batch entry, and reports whether the answer came from the memo. A
// class-filtered query reads only the stationary store it picks up, so it
// takes no lock and its answer is memoized on that store; a query with
// Class == "" also reads the moving grid, so it runs under the read lock
// and is never memoized.
func (s *Server) answerRange(q PrivateRangeQuery, sc *batchScratch) ([]PublicObject, bool) {
	s.met.privateRangeQs.Inc()
	if q.Class == "" {
		s.mu.RLock()
		objs := s.rangeKernel(s.st.Load(), q, sc)
		s.mu.RUnlock()
		return objs, false
	}
	st := s.stationary()
	key := st.memoKey(memoRange, q.Region, q.Class, q.Radius, q.Mode)
	if e := s.memoGet(st, key); e != nil {
		return st.objects(e.slots), true
	}
	objs := s.rangeKernel(st, q, sc)
	memoPut(st, memoEntry{key: key}, sc.slots)
	return objs, false
}

// rangeKernel is the private-range kernel (Figure 5a): one descent of st's
// R-tree over the query's expanded MBR, filtered down to the rounded
// rectangle (RangeRounded) and the class; the surviving slots are sorted
// into sc.slots and resolved into the canonical answer. The candidate set
// is complete by construction (invariant I5): an object within Radius of
// any point p of the region satisfies MinDist(obj, region) ≤ Radius and
// lies inside the expanded MBR. A query with Class == "" also scans the
// moving grid, so its caller holds the read lock.
func (s *Server) rangeKernel(st *stationaryStore, q PrivateRangeQuery, sc *batchScratch) []PublicObject {
	f := q.filter()
	items, visits := st.tree.SearchVisits(f, sc.items[:0])
	sc.items = items
	s.met.nodeVisits.Observe(float64(visits))
	class, all := st.classID(q.Class)
	slots := sc.slots[:0]
	for _, it := range items {
		if q.Mode == RangeRounded && geo.MinDist(it.Loc, q.Region) > q.Radius {
			continue
		}
		if !all && st.cls[it.ID] != class {
			continue
		}
		slots = append(slots, it.ID)
	}
	slices.Sort(slots)
	sc.slots = slots
	// Canonical order: the answer is a set, and emitting it sorted makes
	// the single-server result bit-identical to a scatter/gather union of
	// per-shard results.
	objs := st.objects(slots)
	if q.Class != "" {
		return objs
	}
	sc.moving = s.moving.Search(f, sc.moving[:0])
	moving := sc.movingObjs[:0]
	for _, m := range sc.moving {
		if q.Mode == RangeRounded && geo.MinDist(m.Loc, q.Region) > q.Radius {
			continue
		}
		// A moving object has no class. Its ID space is its own, so its
		// record comes off the grid entry, never the store.
		moving = append(moving, PublicObject{ID: m.ID, Loc: m.Loc})
	}
	sc.movingObjs = moving
	if len(moving) == 0 {
		return objs
	}
	// Sort just the moving matches and merge the two canonically-ordered
	// runs. The comparator key is total over any one answer's objects
	// (SortObjects's contract), so the merged order is byte-identical to
	// sorting the union.
	SortObjects(moving)
	return mergeSorted(objs, moving)
}

// mergeSorted merges two canonically-ordered runs into a fresh slice in
// SortObjects order.
func mergeSorted(a, b []PublicObject) []PublicObject {
	out := make([]PublicObject, 0, len(a)+len(b))
	ai, bi := 0, 0
	for ai < len(a) && bi < len(b) {
		if cmpObjects(b[bi], a[ai]) < 0 {
			out = append(out, b[bi])
			bi++
		} else {
			out = append(out, a[ai])
			ai++
		}
	}
	out = append(out, a[ai:]...)
	return append(out, b[bi:]...)
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
	// Candidates is exactly the set of objects that are a nearest neighbor
	// of some point of the query region (Figure 5b), so it contains the
	// exact nearest neighbor of every point of the region (invariant I6).
	// Ties count: co-located and equidistant objects are all kept.
	Candidates []PublicObject
	// SupersetSize is the min–max candidate count the exact decision
	// started from; the difference to len(Candidates) measures what the
	// decision buys (experiment E5's ablation).
	SupersetSize int
}

// PrivateNN executes the query. The computation follows Figure 5b:
//
//  1. A sound superset via the min–max bound: browse objects by MinDist to
//     the region; any object whose MinDist exceeds T = min over seen
//     objects of MaxDist(object, region) can never be the nearest neighbor
//     of any point of the region (that minimizing object is closer
//     everywhere), so browsing stops there.
//  2. The exact decision (exactNN): an object survives iff its Voronoi
//     cell meets the region, which drops objects like target A that B and
//     C beat *together* everywhere. It runs on the item stream before
//     resolution, so only survivors are resolved.
func (s *Server) PrivateNN(q PrivateNNQuery) (PrivateNNResult, error) {
	return s.PrivateNNCtx(context.Background(), q)
}

// PrivateNNCtx is PrivateNN under a context (trace): the NN answer under
// the private_nn class span.
func (s *Server) PrivateNNCtx(ctx context.Context, q PrivateNNQuery) (PrivateNNResult, error) {
	if err := q.validate(); err != nil {
		return PrivateNNResult{}, err
	}
	r := s.beginSingle(ctx, s.met.privateNN)
	res, _ := s.answerNN(q, r.sc)
	if r.sp.Recording() {
		r.sp.SetAttrs(trace.Int("candidates", int64(len(res.Candidates))), trace.Int("superset", int64(res.SupersetSize)))
	}
	s.endSingle(r)
	return res, nil
}

// answerNN answers one validated private NN query, asked alone or as a
// batch entry, and reports whether the answer came from the memo: the
// answer memoized on the stationary store current at the start, or the NN
// kernel's steps over that store — the min–max descent, the exact
// decision on the item stream, and the canonical resolution of only its
// survivors. The store is never edited, so the query takes no lock, and a
// load that swaps in another store meanwhile cannot mix two states into
// its answer.
func (s *Server) answerNN(q PrivateNNQuery, sc *batchScratch) (PrivateNNResult, bool) {
	s.met.privateNNQs.Inc()
	st := s.stationary()
	key := st.memoKey(memoNN, q.Region, q.Class, 0, 0)
	if e := s.memoGet(st, key); e != nil {
		return s.nnAnswer(st, e.superset, e.slots), true
	}
	items, _ := s.nnDescent(st, q.Region, q.Class, sc)
	superset := len(items)
	slots := sc.sortedSlots(compact(items, sc.comb.exactNN(q.Region, items)))
	memoPut(st, memoEntry{key: key, superset: superset}, slots)
	return s.nnAnswer(st, superset, slots), false
}

// nnDescent is the min–max descent of the private-NN kernel (step 1 of
// Figure 5b) over one probe region and class of store st: the candidate
// item stream in traversal order and its bound.
func (s *Server) nnDescent(st *stationaryStore, region geo.Rect, class string, sc *batchScratch) ([]rtree.Item, float64) {
	var match func(rtree.Item) bool
	if c, all := st.classID(class); !all {
		cls := st.cls
		match = func(it rtree.Item) bool { return cls[it.ID] == c }
	}
	items, bound, visits := st.tree.MinMaxCandidates(region, match, sc.items[:0])
	sc.items = items
	s.met.nodeVisits.Observe(float64(visits))
	return items, bound
}

// nnAnswer builds a private NN answer from its survivors' sorted slots in
// st, computed or memoized, and observes its size.
func (s *Server) nnAnswer(st *stationaryStore, superset int, slots []uint64) PrivateNNResult {
	s.met.observeNNAnswer(len(slots))
	return PrivateNNResult{SupersetSize: superset, Candidates: st.objects(slots)}
}

// validate checks the query parameters (shared with BatchQuery).
func (q PrivateNNQuery) validate() error {
	if !q.Region.Valid() {
		return fmt.Errorf("server: invalid query region %v", q.Region)
	}
	return nil
}

// NNParts is the partial private-NN evaluation one data partition
// contributes: the objects that pass the local min–max filter, *undecided*,
// plus the local bound they were filtered against. The routing tier
// gathers one part per shard and finishes them with CombineNNParts: whether
// an object's Voronoi cell meets the region depends on objects other
// partitions hold, so only the union can be decided.
type NNParts struct {
	// Bound is min MaxDist²(object, region) over every class-matching
	// object of the partition (+Inf when there is none).
	Bound float64
	// Candidates are the class-matching objects with
	// MinDist²(object, region) ≤ Bound. Their order is an index-traversal
	// artifact and carries no meaning: CombineNNParts decides on the set
	// and sorts the survivors canonically.
	Candidates []PublicObject
}

// PrivateNNParts evaluates the shard-local half of a private NN query:
// the min–max browse without the global finalize. The routing tier calls
// this on every shard owning a tile of the query region and combines the
// parts with CombineNNParts.
func (s *Server) PrivateNNParts(q PrivateNNQuery) (NNParts, error) {
	return s.PrivateNNPartsCtx(context.Background(), q)
}

// PrivateNNPartsCtx is PrivateNNParts under a context (trace): the parts
// memoized on the stationary store, or the min–max descent and the
// canonical resolution of its whole stream.
func (s *Server) PrivateNNPartsCtx(ctx context.Context, q PrivateNNQuery) (NNParts, error) {
	if err := q.validate(); err != nil {
		return NNParts{}, err
	}
	r := s.beginSingle(ctx, s.met.privateNN)
	s.met.privateNNQs.Inc()
	st := s.stationary()
	key := st.memoKey(memoNNParts, q.Region, q.Class, 0, 0)
	var parts NNParts
	if e := s.memoGet(st, key); e != nil {
		parts = NNParts{Bound: e.bound, Candidates: st.objects(e.slots)}
	} else {
		items, bound := s.nnDescent(st, q.Region, q.Class, r.sc)
		slots := r.sc.sortedSlots(items)
		parts = NNParts{Bound: bound, Candidates: st.objects(slots)}
		memoPut(st, memoEntry{key: key, bound: bound}, slots)
	}
	if r.sp.Recording() {
		r.sp.SetAttrs(trace.Int("superset", int64(len(parts.Candidates))))
	}
	s.endSingle(r)
	return parts, nil
}

// CombineNNParts finishes a private NN query from partial evaluations
// (step 2 of Figure 5b): the global bound is the minimum of the parts'
// bounds, candidates are re-filtered against it, the exact decision runs
// on the filtered union, and the survivors are sorted canonically. Called
// with one part it is exactly the single-server answer; called with one
// part per shard it produces a bit-identical answer, because the global
// bound, the filtered set and the decision are all functions of the union
// alone.
func CombineNNParts(region geo.Rect, parts ...NNParts) PrivateNNResult {
	bound := math.Inf(1)
	for _, p := range parts {
		bound = min(bound, p.Bound)
	}
	var cands []PublicObject
	var pts []rtree.Item
	for _, p := range parts {
		for _, o := range p.Candidates {
			// A single part is already filtered against its own bound,
			// which here IS the global one.
			if len(parts) == 1 || geo.MinDist2(o.Loc, region) <= bound {
				cands = append(cands, o)
				pts = append(pts, rtree.Item{Loc: o.Loc})
			}
		}
	}
	res := PrivateNNResult{SupersetSize: len(cands)}
	if kept := compact(cands, new(combineScratch).exactNN(region, pts)); len(kept) > 0 {
		res.Candidates = kept
		SortObjects(res.Candidates)
	}
	return res
}

// compact filters s in place down to the elements keep marks.
func compact[T any](s []T, keep []bool) []T {
	n := 0
	for i, v := range s {
		if keep[i] {
			s[n] = v
			n++
		}
	}
	return s[:n]
}

// The exact private-NN decision. Object o is a nearest neighbor of some
// point of the closed region R iff o lies in R or is nearest at some point
// of R's boundary: o's Voronoi cell is convex and contains o, so if it
// meets R while o lies outside, it meets the boundary on the way to o.
// Each boundary edge [a, b] is settled by bisection through the cells it
// crosses. Probe the nearest objects A at a and B at b. If A is nearest at
// b too (or B at a), every object nearest anywhere on the edge is tied at
// a or b — d²(C)−d²(A) is affine along the edge, so if it is ≤ 0 somewhere
// it is ≤ 0 at an end. Otherwise probe q, where the edge crosses the
// bisector of A and B, and settle [a, q] and [q, b] the same way.
//
// "Nearest at p" means within the relative slack nnEps of the least
// squared distance at p, and a probe keeps every object inside it, so
// exact ties and co-located objects all survive; the "nearest at both
// ends" test uses half the slack, which keeps the argument sound under
// rounding (~1e-16 relative). The walk's one choice — which object A names
// at a probe — breaks ties by location, and the walk reads nothing of A but
// its location, so the decision reads the candidates' locations, never
// their keys or slice positions.
const (
	nnEps     = 1e-9
	nnScanMax = 64 // larger sets are probed through a grid, not a scan
	// nnMaxDepth caps the bisection of one edge; an edge unsettled there,
	// or whose bisection point rounds onto an end or overflows (degenerate
	// input), keeps every candidate instead, which is sound.
	nnMaxDepth = 64
)

// combineScratch is the exact decision's reusable working set, its grid
// included: one per worker scratch, so the decision stops churning the
// heap; the answer bytes are identical for any scratch contents.
type combineScratch struct {
	set  []rtree.Item // the candidate set under decision (borrowed)
	keep []bool       // the decision, position for position with set
	near []nnHit      // one probe's provisional ties

	// The grid over set: square cells of side cell from origin, nx × ny of
	// them; cell c holds set[idx[start[c]:start[c+1]]].
	origin geo.Point
	cell   float64
	nx, ny int
	start  []int32
	idx    []int32
}

// nnHit is one candidate a probe met within the running slack.
type nnHit struct {
	i  int
	d2 float64
}

// nnProbe is a boundary point with its nearest candidate (ties by X, then
// Y) and that candidate's squared distance.
type nnProbe struct {
	p   geo.Point
	arg int
	d2  float64
}

// exactNN returns the scratch-backed decision over set, position for
// position: true for every candidate nearest to some point of region. set
// must hold every object nearest to some point of it, as a min–max set does.
func (sc *combineScratch) exactNN(region geo.Rect, set []rtree.Item) []bool {
	keep := slices.Grow(sc.keep[:0], len(set))[:len(set)]
	sc.keep, sc.set = keep, set
	for i, it := range set {
		keep[i] = region.Contains(it.Loc)
	}
	if len(set) == 0 {
		return keep
	}
	if len(set) > nnScanMax {
		sc.buildGrid()
	}
	var corner [4]nnProbe
	for k, p := range region.Corners() {
		corner[k] = sc.probe(p)
	}
	for k := range corner {
		sc.walk(corner[k], corner[(k+1)%4], 0)
	}
	return keep
}

// walk settles the edge [a, b], whose end probes have already kept their
// ties: it keeps every candidate nearest at some point of the edge.
func (sc *combineScratch) walk(a, b nnProbe, depth int) {
	A, B := sc.set[a.arg].Loc, sc.set[b.arg].Loc
	fa, fb := a.p.Dist2(B)-a.d2, b.d2-b.p.Dist2(A)
	if -fb <= b.d2*(nnEps/2) || fa <= a.d2*(nnEps/2) {
		return // one object is nearest at both ends
	}
	// d²(B)−d²(A) is affine along the edge, > 0 at a and < 0 at b; q is its
	// zero, clamped onto the edge (NaN if a huge region overflowed d²).
	seg := geo.R(a.p.X, a.p.Y, b.p.X, b.p.Y)
	q := seg.ClampPoint(a.p.Lerp(b.p, fa/(fa-fb)))
	if depth == nnMaxDepth || q == a.p || q == b.p || !q.Valid() {
		for i := range sc.keep {
			sc.keep[i] = true // sound, and only degenerate input gets here
		}
		return
	}
	mid := sc.probe(q)
	sc.walk(a, mid, depth+1)
	sc.walk(mid, b, depth+1)
}

// probe finds the nearest candidate at p and keeps every candidate within
// the slack of it.
func (sc *combineScratch) probe(p geo.Point) nnProbe {
	pr := nnProbe{p: p, arg: -1, d2: math.Inf(1)}
	sc.near = sc.near[:0]
	if len(sc.set) <= nnScanMax {
		for i := range sc.set {
			sc.consider(&pr, i)
		}
	} else {
		sc.gridProbe(&pr)
	}
	lim := pr.d2 * (1 + nnEps)
	for _, h := range sc.near {
		if h.d2 <= lim {
			sc.keep[h.i] = true
		}
	}
	return pr
}

// consider measures candidate i against the probe: it may become the
// nearest (ties by X, then Y), and it is noted while within the running
// slack.
func (sc *combineScratch) consider(pr *nnProbe, i int) {
	it := sc.set[i]
	d := pr.p.Dist2(it.Loc)
	if pr.arg < 0 || d < pr.d2 || (d == pr.d2 && cmpLoc(it.Loc, sc.set[pr.arg].Loc) < 0) {
		pr.d2, pr.arg = d, i
	}
	if d <= pr.d2*(1+nnEps) {
		sc.near = append(sc.near, nnHit{i, d})
	}
}

// buildGrid buckets the set into about two candidates per square cell by
// a counting sort.
func (sc *combineScratch) buildGrid() {
	lo, hi := sc.set[0].Loc, sc.set[0].Loc
	for _, it := range sc.set[1:] {
		lo = geo.Point{X: min(lo.X, it.Loc.X), Y: min(lo.Y, it.Loc.Y)}
		hi = geo.Point{X: max(hi.X, it.Loc.X), Y: max(hi.Y, it.Loc.Y)}
	}
	w, h := hi.X-lo.X, hi.Y-lo.Y
	cells := float64(len(sc.set)) / 2
	// A thin box gets at most ~3× cells; co-located candidates get one.
	cell := max(math.Sqrt(w*h/cells), max(w, h)/cells, math.SmallestNonzeroFloat64)
	sc.origin, sc.cell = lo, cell
	sc.nx, sc.ny = int(w/cell)+1, int(h/cell)+1
	n := sc.nx * sc.ny
	start := slices.Grow(sc.start[:0], n+1)[:n+1]
	clear(start)
	for _, it := range sc.set {
		start[sc.cellOf(it.Loc)]++
	}
	for c := 1; c <= n; c++ {
		start[c] += start[c-1] // the end of cell c
	}
	idx := slices.Grow(sc.idx[:0], len(sc.set))[:len(sc.set)]
	for i, it := range sc.set {
		c := sc.cellOf(it.Loc)
		start[c]-- // filled back to front, so it ends at cell c's start
		idx[start[c]] = int32(i)
	}
	sc.start, sc.idx = start, idx
}

// cellCoord is the grid column (or row) of coordinate v, clamped into
// [0, n): a point outside the grid maps to the nearest border cell.
func (sc *combineScratch) cellCoord(v, origin float64, n int) int {
	f := (v - origin) / sc.cell
	switch {
	case f < 0:
		return 0
	case f >= float64(n-1):
		return n - 1
	}
	return int(f)
}

func (sc *combineScratch) cellOf(p geo.Point) int {
	return sc.cellCoord(p.Y, sc.origin.Y, sc.ny)*sc.nx + sc.cellCoord(p.X, sc.origin.X, sc.nx)
}

// gridProbe visits rings of cells around p's (clamped) cell until the
// ring's distance bound passes the running slack or the rings have left
// the grid. Every cell of ring r ≥ 1 lies at least (r−1)·cell from p; the
// bound shaves a millionth of a cell off that for rounding in cellCoord.
func (sc *combineScratch) gridProbe(pr *nnProbe) {
	cx, cy := sc.cellCoord(pr.p.X, sc.origin.X, sc.nx), sc.cellCoord(pr.p.Y, sc.origin.Y, sc.ny)
	for r := 0; ; r++ {
		if lb := (float64(r-1) - 1e-6) * sc.cell; r > 1 && lb*lb > pr.d2*(1+nnEps) {
			return
		}
		x0, x1, y0, y1 := cx-r, cx+r, cy-r, cy+r
		if x0 < 0 && y0 < 0 && x1 >= sc.nx && y1 >= sc.ny {
			return
		}
		for y := max(y0, 0); y <= min(y1, sc.ny-1); y++ {
			xs, step := max(x0, 0), 1 // the ring's top and bottom rows, whole
			if y != y0 && y != y1 {
				xs, step = x0, x1-x0 // between them, its two side columns
			}
			for x := xs; x <= min(x1, sc.nx-1); x += step {
				if c := y*sc.nx + x; x >= 0 {
					for _, i := range sc.idx[sc.start[c]:sc.start[c+1]] {
						sc.consider(pr, int(i))
					}
				}
			}
		}
	}
}
