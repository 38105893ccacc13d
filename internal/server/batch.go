package server

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/par"
	"repro/internal/prob"
	"repro/internal/regidx"
	"repro/internal/rtree"
	"repro/internal/trace"
)

// This file implements the shared-execution batch query engine (the
// database-server counterpart of the anonymizer's BatchUpdate pipeline).
// A batch admits a mix of private-range, private-NN and public-count
// queries; range-shaped entries whose query rectangles overlap are merged
// into one *shared descent* — a single index traversal over the union
// rectangle that answers the whole group — in the spirit of SINA's shared
// execution of overlapping spatial queries (Mokbel et al., SIGMOD 2004).
// Independent work units then fan out to a worker pool reading one frozen
// snapshot of the indices.
//
// The engine is deterministic by construction: results are bit-identical
// to the per-query methods for every worker count and every grouping (the
// differential suite pins this down). The argument, per query class:
//
//   - Private range: the union descent's output contains every item the
//     member's own search would have produced, the member's filters read
//     only the item, and the answer is sorted canonically, so whatever the
//     stream order, the answer is the member's own.
//   - Public count: per-user probabilities are sorted before accumulation
//     (the determinism rule foldCount documents), so any candidate
//     superset that contains the member's own candidate set produces a
//     bit-identical PDF.
//   - Private NN: the min–max superset of a union region contains every
//     member's own candidate set (argued on runNNGroup), the exact
//     decision reads that set alone, and answers are in canonical order.
//
// The three group runners below are the only code that probes the indices
// for a query (PrivateNN and PrivateNNParts run the NN runner's steps on
// the store they pick up). The single-query methods run them on a group of
// one whose union is the query's own probe rectangle, so "sequential" and
// "batch" cannot drift apart; what the differential suite pins down is that
// filtering a shared union descent equals a member's own descent. The
// single-query methods also consult the stationary store's answer memo
// (memo.go) first; a batch does not.
//
// Lock order: BatchQuery takes s.mu (read) once in the coordinating
// goroutine and holds it across the fan-out, so workers read a frozen
// snapshot without touching the mutex; no worker acquires any other lock.

// BatchKind tags one entry of a batch query.
type BatchKind uint8

const (
	// BatchPrivateRange is a PrivateRangeQuery entry.
	BatchPrivateRange BatchKind = iota + 1
	// BatchPrivateNN is a PrivateNNQuery entry.
	BatchPrivateNN
	// BatchPublicCount is a PublicRangeCountQuery entry.
	BatchPublicCount
)

// String implements fmt.Stringer.
func (k BatchKind) String() string {
	switch k {
	case BatchPrivateRange:
		return "private_range"
	case BatchPrivateNN:
		return "private_nn"
	case BatchPublicCount:
		return "public_count"
	default:
		return fmt.Sprintf("batchkind(%d)", uint8(k))
	}
}

// BatchEntry is one query inside a batch; only the field selected by Kind
// is read.
type BatchEntry struct {
	Kind  BatchKind
	Range PrivateRangeQuery
	NN    PrivateNNQuery
	Count PublicRangeCountQuery
}

// BatchEntryError is the typed per-entry failure: an invalid query inside
// a batch fails alone, carrying its position and kind, and never poisons
// the shared descent of the group it would have joined.
type BatchEntryError struct {
	Index int
	Kind  BatchKind
	Err   error
}

// Error implements error.
func (e *BatchEntryError) Error() string {
	return fmt.Sprintf("batch entry %d (%s): %v", e.Index, e.Kind, e.Err)
}

// Unwrap exposes the underlying validation error.
func (e *BatchEntryError) Unwrap() error { return e.Err }

// BatchItemResult is the outcome of one entry: either Err is set (always a
// *BatchEntryError) or the field selected by the entry's Kind is.
type BatchItemResult struct {
	Err   error
	Range []PublicObject
	NN    PrivateNNResult
	Count PublicRangeCountResult
}

// BatchResult is the outcome of one BatchQuery call.
type BatchResult struct {
	// Items holds one result per input entry, in input order.
	Items []BatchItemResult
	// Groups is the number of independent work units (shared descents) the
	// batch was split into.
	Groups int
	// SharedHits counts the entries that were answered by a descent
	// another entry initiated: sum over groups of (size − 1).
	SharedHits int
}

// batchUnit is one independent work unit: a shared descent over the union
// rectangle of overlapping same-kind entries.
type batchUnit struct {
	kind    BatchKind
	members []int    // entry indices, ascending (= input order)
	union   geo.Rect // union rectangle of the members' probe rects
}

// groupOfOne is the unit a single query runs as: entry 0 alone, its own
// probe rectangle as the union.
func groupOfOne(probe geo.Rect) batchUnit {
	return batchUnit{members: oneMember, union: probe}
}

var oneMember = []int{0} // read-only

// batchScratch is one worker's reusable buffer set. Each worker of the
// fan-out owns exactly one (indexed by worker id), so units processed by
// the same worker reuse the same backing arrays instead of reallocating
// per unit; a single query borrows worker 0's. Nothing here escapes into
// results: result slices are always freshly built, scratch only carries
// the intermediate streams — including the count kernel's output (pairs),
// which the caller must fold before the scratch runs its next unit.
type batchScratch struct {
	items      []rtree.Item   // union-descent / NN-candidate item stream
	subItems   []rtree.Item   // one member's items: subtree descent or range matches
	slots      []uint64       // the store slots of the last answer resolved, sorted
	movingObjs []PublicObject // per-member moving matches awaiting merge
	hits       []regidx.Hit   // region-index probe output: ids with their regions
	pairs      []UserProb     // count kernel output, member after member
	ends       []int          // member k's pairs are pairs[ends[k-1]:ends[k]]
	probs      []float64      // one member's probabilities awaiting the fold
	clamped    []float64      // RangeCountScratch clamp buffer
	comb       combineScratch // exact private-NN decision working set
}

// batchCoord is the per-call coordination scratch: the admission index
// lists, the grouping arena, the unit list and the per-worker buffer
// sets. Calls — batches and single queries alike — borrow one from the
// server's pool, so a steady stream of requests reuses the same backing
// arrays instead of rebuilding them per call; nothing in here escapes
// into results.
type batchCoord struct {
	rangeIdx, nnIdx, countIdx []int
	units                     []batchUnit
	gs                        groupScratch
	scratches                 []batchScratch
}

// borrowCoord takes a coordinator with at least the given number of
// worker scratches from the pool; the caller hands it back with
// s.batchPool.Put once every scratch-backed value has been consumed.
func (s *Server) borrowCoord(workers int) *batchCoord {
	c, _ := s.batchPool.Get().(*batchCoord)
	if c == nil {
		c = &batchCoord{}
	}
	if cap(c.scratches) < workers {
		c.scratches = make([]batchScratch, workers)
	}
	c.scratches = c.scratches[:workers]
	return c
}

// singleQuery is one single-query adapter call in flight: the borrowed
// coordinator whose first scratch receives the kernel's output, and the
// class span the call is timed and recorded under.
type singleQuery struct {
	c  *batchCoord
	sc *batchScratch
	sp trace.Span
}

// beginSingle opens a single query under its class span: every public
// per-query method is validate → beginSingle → RLock → the kind's kernel
// → RUnlock → finish from the scratch → endSingle. The read lock is held
// across index work only — never across the PDF fold or the NN decision,
// which run on scratch copies: milliseconds under RLock stall every
// UpdatePrivate and, through writer preference, every reader queued
// behind it.
func (s *Server) beginSingle(ctx context.Context, class trace.Stage) singleQuery {
	sp, _ := class.Start(ctx, s.tracer)
	q := singleQuery{sp: sp, c: s.borrowCoord(1)}
	q.sc = &q.c.scratches[0]
	return q
}

// endSingle closes a single query: the scratch's return to the pool, then
// the span, which observes the class latency.
func (s *Server) endSingle(q singleQuery) {
	s.batchPool.Put(q.c)
	q.sp.End()
}

// BatchQuery evaluates a mixed batch of queries in one shared pass and
// returns per-entry results in input order. Invalid entries fail alone
// with a *BatchEntryError; valid entries are grouped, fanned out to the
// configured worker pool (Config.QueryWorkers), and answered from one
// frozen snapshot of the indices, bit-identically to the per-query
// methods.
func (s *Server) BatchQuery(entries []BatchEntry) BatchResult {
	return s.BatchQueryCtx(context.Background(), entries)
}

// BatchQueryCtx is BatchQuery under a context: for traced requests every
// engine phase (validate → merge → shared descent with per-unit worker
// spans → gather) is recorded under the caller's trace, with group sizes
// and index node-visit counts as span attributes.
func (s *Server) BatchQueryCtx(ctx context.Context, entries []BatchEntry) BatchResult {
	res := BatchResult{Items: make([]BatchItemResult, len(entries))}
	if len(entries) == 0 {
		return res
	}
	bsp, ctx := s.met.batch.Start(ctx, s.tracer)

	workers := s.queryWorkers
	if workers > len(entries) {
		workers = len(entries)
	}
	c := s.borrowCoord(workers)
	defer s.batchPool.Put(c)

	// Phase 1 — admission: validate every entry with exactly the checks
	// the per-query methods apply. Failures are recorded per entry and
	// excluded from grouping, so a bad entry cannot poison a descent.
	vsp, _ := trace.Start(ctx, s.tracer, "lbs_batch_validate")
	rangeIdx, nnIdx, countIdx := c.rangeIdx[:0], c.nnIdx[:0], c.countIdx[:0]
	for i, e := range entries {
		var err error
		switch e.Kind {
		case BatchPrivateRange:
			if err = e.Range.validate(); err == nil {
				rangeIdx = append(rangeIdx, i)
			}
		case BatchPrivateNN:
			if err = e.NN.validate(); err == nil {
				nnIdx = append(nnIdx, i)
			}
		case BatchPublicCount:
			if err = e.Count.validate(); err == nil {
				countIdx = append(countIdx, i)
			}
		default:
			err = fmt.Errorf("server: unknown batch query kind %d", uint8(e.Kind))
		}
		if err != nil {
			res.Items[i].Err = &BatchEntryError{Index: i, Kind: e.Kind, Err: err}
		}
	}
	c.rangeIdx, c.nnIdx, c.countIdx = rangeIdx, nnIdx, countIdx
	if vsp.Recording() {
		vsp.SetAttrs(trace.Int("entries", int64(len(entries))),
			trace.Int("admitted", int64(len(rangeIdx)+len(nnIdx)+len(countIdx))))
		vsp.End()
	}

	// Phase 2 — grouping: growth-capped greedy packing of the
	// rectangle-overlap graph, per query class (range entries probe the
	// public indices, count entries the region index — they cannot share
	// a descent).
	msp, _ := trace.Start(ctx, s.tracer, "lbs_batch_merge")
	c.gs.reset()
	units := c.units[:0]
	group := func(kind BatchKind, idx []int, rect func(i int) geo.Rect) {
		for _, g := range c.gs.groupShared(idx, rect) {
			units = append(units, batchUnit{kind: kind, members: g.members, union: g.union})
		}
	}
	group(BatchPrivateRange, rangeIdx, func(i int) geo.Rect { return entries[i].Range.filter() })
	group(BatchPublicCount, countIdx, func(i int) geo.Rect { return entries[i].Count.Query })
	// NN entries share a descent only within one class: the class filter is
	// part of the min–max descent, so members of a group must agree on it.
	// A stable sort by class keeps input order within each class, and every
	// run of equal classes is grouped on its own.
	nnClass := func(i int) string { return entries[i].NN.Class }
	slices.SortStableFunc(nnIdx, func(a, b int) int { return strings.Compare(nnClass(a), nnClass(b)) })
	for lo, hi := 0, 0; lo < len(nnIdx); lo = hi {
		for hi = lo + 1; hi < len(nnIdx) && nnClass(nnIdx[hi]) == nnClass(nnIdx[lo]); hi++ {
		}
		group(BatchPrivateNN, nnIdx[lo:hi], func(i int) geo.Rect { return entries[i].NN.Region })
	}
	c.units = units
	res.Groups = len(units)
	for _, u := range units {
		res.SharedHits += len(u.members) - 1
	}
	if msp.Recording() {
		msp.SetAttrs(trace.Int("groups", int64(res.Groups)),
			trace.Int("shared_hits", int64(res.SharedHits)))
		msp.End()
	}

	// Phase 3 — execution: freeze the indices once and fan the units out.
	// The read lock is held by this goroutine for the whole fan-out;
	// workers only read (writers stay excluded), and the wg join gives the
	// usual happens-before edges. Units write disjoint result slots.
	// Worker spans record into the lock-free ring, so tracing adds no
	// synchronization to the fan-out.
	dsp, dctx := trace.Start(ctx, s.tracer, "lbs_batch_descent")
	s.mu.RLock()
	st := s.st.Load()
	par.For(len(units), workers, func(w, ui int) {
		u := units[ui]
		sc := &c.scratches[w]
		usp, _ := trace.Start(dctx, s.tracer, "lbs_batch_unit")
		var visits int
		switch u.kind {
		case BatchPrivateRange:
			visits = s.runRangeGroup(st, entries, u, res.Items, sc)
		case BatchPrivateNN:
			visits = s.runNNGroup(st, entries, u, res.Items, sc)
		case BatchPublicCount:
			visits = s.runCountGroupLocked(entries, u, sc)
			lo := 0
			for k, i := range u.members {
				res.Items[i].Count = sc.foldCount(sc.pairs[lo:sc.ends[k]])
				lo = sc.ends[k]
			}
		}
		if usp.Recording() {
			usp.SetAttrs(trace.Str("kind", u.kind.String()),
				trace.Int("members", int64(len(u.members))),
				trace.Int("node_visits", int64(visits)))
			usp.End()
		}
	})
	s.mu.RUnlock()
	dsp.End()

	// Phase 4 — gather: fold the batch into the shared-execution series.
	gsp, _ := trace.Start(ctx, s.tracer, "lbs_batch_gather")
	s.met.batches.Inc()
	s.met.batchEntries.Add(uint64(len(entries)))
	s.met.batchSharedHits.Add(uint64(res.SharedHits))
	s.met.batchSize.Observe(float64(len(entries)))
	s.met.batchGroups.Observe(float64(res.Groups))
	gsp.End()
	bsp.End()
	return res
}

// sortedSlots puts the slots of slot-keyed items into sc.slots in
// canonical order, ascending by object ID, and returns them. Slot order
// is ID order, so sorting bare slots and indexing the store with them
// (objects) is far cheaper than shuffling PublicObjects, whose string
// field drags write barriers into every swap.
func (sc *batchScratch) sortedSlots(items []rtree.Item) []uint64 {
	slots := sc.slots[:0]
	for _, it := range items {
		slots = append(slots, it.ID)
	}
	sc.slots = slots
	slices.Sort(slots)
	return slots
}

// objects resolves sorted slots into a fresh, exact-size answer (it
// escapes into a result); an empty answer is nil.
func (st *stationaryStore) objects(slots []uint64) []PublicObject {
	if len(slots) == 0 {
		return nil
	}
	out := make([]PublicObject, len(slots))
	for i, k := range slots {
		out[i] = st.objs[k]
	}
	return out
}

// runRangeGroup is the private-range kernel (Figure 5a): it answers
// every member of one group from a single descent of the stationary R-tree
// (and, if any member admits moving objects, a single scan of the moving
// grid) over the group's union rectangle. Per member, the union's item
// stream is filtered down to the member's own expanded MBR and class, and
// the surviving slots are sorted and resolved into the canonical answer.
// The candidate set is complete by construction (invariant I5): an object
// within Radius of any point p of a member's region satisfies
// MinDist(obj, region) ≤ Radius and lies inside the expanded MBR, which the
// union covers. It returns the R-tree node visits the descent cost. It
// reads the moving grid only for a member with Class == "", so only such
// a group needs the read lock; a group of class-filtered members reads
// the store st alone, and sc.slots ends holding the last member's answer.
func (s *Server) runRangeGroup(st *stationaryStore, entries []BatchEntry, u batchUnit, out []BatchItemResult, sc *batchScratch) int {
	items, visits := st.tree.SearchVisits(u.union, sc.items[:0])
	sc.items = items
	s.met.nodeVisits.Observe(float64(visits))
	s.met.privateRangeQs.Add(uint64(len(u.members)))
	// In a shared group the stream is sorted by X, so each member scans
	// only the items inside its own X-extent (binary-searched ends) instead
	// of the whole union stream. A group of one scans everything: the union
	// is its own MBR.
	shared := len(u.members) > 1
	if shared {
		slices.SortFunc(items, func(a, b rtree.Item) int { return cmp.Compare(a.Loc.X, b.Loc.X) })
	}
	var movingItems []grid.Object
	for _, i := range u.members {
		if entries[i].Range.Class == "" {
			movingItems = s.moving.Search(u.union, nil)
			break
		}
	}
	for _, i := range u.members {
		q := entries[i].Range
		f := q.filter()
		class, all := st.classID(q.Class)
		// Contains is inclusive on both ends, so the window is
		// [first X ≥ f.Min.X, first X > f.Max.X). Geometric checks read
		// the tree item's location — exactly what the member's own index
		// search would test — and class reads the slot's interned class.
		window := items
		if shared {
			lo := sort.Search(len(items), func(k int) bool { return items[k].Loc.X >= f.Min.X })
			hi := sort.Search(len(items), func(k int) bool { return items[k].Loc.X > f.Max.X })
			window = items[lo:hi]
		}
		matched := sc.subItems[:0]
		for _, it := range window {
			if it.Loc.Y < f.Min.Y || it.Loc.Y > f.Max.Y {
				continue
			}
			if q.Mode == RangeRounded && geo.MinDist(it.Loc, q.Region) > q.Radius {
				continue
			}
			if !all && st.cls[it.ID] != class {
				continue
			}
			matched = append(matched, it)
		}
		sc.subItems = matched
		objs := st.objects(sc.sortedSlots(matched))
		if q.Class == "" && len(movingItems) > 0 {
			// Moving matches are the member's own; sort just those and
			// merge the two canonically-ordered runs. The comparator key is
			// total over any one answer's objects (SortObjects's contract),
			// so the merged order is byte-identical to sorting the union.
			moving := sc.movingObjs[:0]
			for _, m := range movingItems {
				if !f.Contains(m.Loc) {
					continue
				}
				if q.Mode == RangeRounded && geo.MinDist(m.Loc, q.Region) > q.Radius {
					continue
				}
				// A moving object has no class. Its ID space is its own, so
				// its record comes off the grid entry, never the store.
				moving = append(moving, PublicObject{ID: m.ID, Loc: m.Loc})
			}
			sc.movingObjs = moving
			if len(moving) > 0 {
				SortObjects(moving)
				objs = mergeSorted(objs, moving)
			}
		}
		// Canonical order: the answer is a set, and emitting it sorted makes
		// the single-server result bit-identical to a scatter/gather union
		// of per-shard results.
		out[i].Range = objs
	}
	return visits
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

// nnDescent is the min–max descent of the private-NN kernel (step 1 of
// Figure 5b) over one probe region and class of store st: the candidate
// item stream in traversal order, its bound, and the node visits it cost.
func (s *Server) nnDescent(st *stationaryStore, region geo.Rect, class string, sc *batchScratch) ([]rtree.Item, float64, int) {
	var match func(rtree.Item) bool
	if c, all := st.classID(class); !all {
		cls := st.cls
		match = func(it rtree.Item) bool { return cls[it.ID] == c }
	}
	items, bound, visits := st.tree.MinMaxCandidates(region, match, sc.items[:0])
	sc.items = items
	s.met.nodeVisits.Observe(float64(visits))
	return items, bound, visits
}

// runNNGroup is the private-NN kernel (Figure 5b): it answers every
// member of one group from a single min–max descent over the group's union
// region (members share one class), and returns the node visits it cost.
// A group of one is its own union: the exact decision runs on the item
// stream, and only the survivors are sorted and resolved. A larger group
// relies on the union's min–max superset S containing every member's
// candidate set and bound minimizer: for a member region r ⊆ U,
// B(r) = min MaxDist²(o, r) ≤ MaxDist²(o*ᵤ, r) ≤ MaxDist²(o*ᵤ, U) = B(U),
// and any object with MinDist²(o, r) ≤ B(r) has
// MinDist²(o, U) ≤ MinDist²(o, r) ≤ B(U), so it sits in S — r's bound
// minimizer too, so the min–max filter of S is r's exact candidate set.
// Each member decides on a min–max descent of a subtree bulk-loaded over S.
func (s *Server) runNNGroup(st *stationaryStore, entries []BatchEntry, u batchUnit, out []BatchItemResult, sc *batchScratch) int {
	items, _, visits := s.nnDescent(st, u.union, entries[u.members[0]].NN.Class, sc)
	s.met.privateNNQs.Add(uint64(len(u.members)))
	if len(u.members) == 1 {
		region := entries[u.members[0]].NN.Region
		out[u.members[0]].NN = s.finishNN(st, len(items), compact(items, sc.comb.exactNN(region, items)), sc)
		return visits
	}
	// The subtree keeps the stream's slots and tree-side locations, so
	// per-member bounds measure exactly the member's points.
	sub := rtree.BulkLoad(items)
	for _, i := range u.members {
		cand, _, _ := sub.MinMaxCandidates(entries[i].NN.Region, nil, sc.subItems[:0])
		sc.subItems = cand
		region := entries[i].NN.Region
		out[i].NN = s.finishNN(st, len(cand), compact(cand, sc.comb.exactNN(region, cand)), sc)
	}
	return visits
}

// finishNN answers one member from the slot-keyed survivors of its exact
// decision, resolved against st, the store they were read from, in
// canonical order into a fresh answer; sc.slots ends holding the
// survivors' sorted slots.
func (s *Server) finishNN(st *stationaryStore, superset int, items []rtree.Item, sc *batchScratch) PrivateNNResult {
	return s.nnAnswer(st, superset, sc.sortedSlots(items))
}

// nnAnswer builds a private NN answer from its survivors' sorted slots in
// st, computed or memoized, and observes its size.
func (s *Server) nnAnswer(st *stationaryStore, superset int, slots []uint64) PrivateNNResult {
	s.met.observeNNAnswer(len(slots))
	return PrivateNNResult{SupersetSize: superset, Candidates: st.objects(slots)}
}

// runCountGroupLocked is the public-count kernel (Figure 6a): it gathers,
// for every member of one group, the (user, overlap probability) pairs
// with positive overlap into sc.pairs/sc.ends, from a single probe of the
// region index over the union rectangle, whose hits carry each region read
// in place from its slot. The union's hit set is a superset of each
// member's own, and per-member overlap tests filter it back down. Pair
// order is a probe artifact and carries no meaning: every consumer sorts
// before it accumulates (foldCount) or emits (PublicCountProbs). Each
// member's pair count — the n its PDF fold costs O(n²) in — is observed in
// lbs_public_count_users. It returns the hit count as the unit's "node
// visits" — the probe cost the region index charges.
func (s *Server) runCountGroupLocked(entries []BatchEntry, u batchUnit, sc *batchScratch) int {
	hits := s.privIdx.QueryHits(u.union, sc.hits[:0])
	sc.hits = hits
	s.met.publicCountQs.Add(uint64(len(u.members)))
	// In a shared group the hits are sorted by their left edge so each
	// member scans only the X-window that can overlap its query: a positive
	// overlap needs r.Min.X < q.Max.X and r.Max.X > q.Min.X, and with maxW
	// the widest cloak in the group the latter implies
	// r.Min.X > q.Min.X − maxW. A group of one probed with its own
	// rectangle, so every hit is in its window already.
	shared := len(u.members) > 1
	maxW := 0.0
	if shared {
		for _, h := range hits {
			maxW = max(maxW, h.Region.Max.X-h.Region.Min.X)
		}
		slices.SortFunc(hits, func(a, b regidx.Hit) int { return cmp.Compare(a.Region.Min.X, b.Region.Min.X) })
	}
	pairs, ends := sc.pairs[:0], sc.ends[:0]
	for _, i := range u.members {
		q := entries[i].Count.Query
		lo, hi := 0, len(hits)
		if shared {
			lo = sort.Search(len(hits), func(k int) bool { return hits[k].Region.Min.X >= q.Min.X-maxW })
			hi = sort.Search(len(hits), func(k int) bool { return hits[k].Region.Min.X > q.Max.X })
		}
		start := len(pairs)
		for _, h := range hits[lo:hi] {
			if p := prob.Overlap(h.Region, q); p > 0 {
				pairs = append(pairs, UserProb{ID: h.ID, P: p})
			}
		}
		s.met.countUsers.Observe(float64(len(pairs) - start))
		ends = append(ends, len(pairs))
	}
	sc.pairs, sc.ends = pairs, ends
	return len(hits)
}

// foldCount folds one query's (user, probability) pairs — unique per user
// — into the count answer. The probabilities are sorted before
// accumulation, so neither probe order nor the partition of the data
// (shards, shared groups) can influence the PDF's floating-point sums.
func (sc *batchScratch) foldCount(pairs []UserProb) PublicRangeCountResult {
	probs := sc.probs[:0]
	for _, up := range pairs {
		probs = append(probs, up.P)
	}
	sc.probs = probs
	sort.Float64s(probs)
	var ans prob.CountAnswer
	ans, sc.clamped = prob.RangeCountScratch(probs, sc.clamped)
	return PublicRangeCountResult{Answer: ans, NaiveCount: len(pairs)}
}

// sharedGroup is one shared-descent group: member entry indices plus the
// union rectangle their probes are answered from.
type sharedGroup struct {
	members []int
	union   geo.Rect
}

// groupGrowthCap bounds how fat a group's union rectangle may grow
// relative to its largest member. Pure connected-component grouping
// chains barely-overlapping probes into unions far wider than any single
// member, and then every per-group cost (descent, resolve, sort) scales
// with the bloated union stream instead of a member-sized one. Capping
// the union area at this multiple of the largest member keeps the shared
// stream within a constant factor of what each member would have scanned
// alone, which is the regime where amortizing it over k members wins.
const groupGrowthCap = 3.0

// groupScratch carries the grouping working set across calls. The
// members of every returned group are views into one arena slice, so a
// whole batch's grouping costs zero steady-state allocations; reset()
// runs once per batch, before the first grouping call, and the arena
// then only grows across that batch's calls (growth keeps old backing
// arrays alive, so earlier groups' views stay valid).
type groupScratch struct {
	groups   []sharedGroup
	maxAreas []float64
	gid      []int // per-entry group assignment (pass 1)
	offs     []int // per-group arena write cursor (pass 2)
	arena    []int // backing store for all member slices of one batch
}

func (gs *groupScratch) reset() { gs.arena = gs.arena[:0] }

// groupShared greedily packs the entries (by index, in input order) into
// shared-descent groups: an entry joins the first open group whose union
// it intersects and whose union-after-join stays within groupGrowthCap ×
// the largest member's area; otherwise it opens a new group. The packing
// is deterministic in input order and independent of the worker count
// (grouping runs before the fan-out). Any partition is correct — members
// only need to be contained in their group's union — so the cap trades
// shared hits for stream tightness without touching answer bytes.
//
// Pass 1 assigns each entry a group id (the membership test reads only
// the running union and max member area); pass 2 counts members per
// group and fills the arena by cursor, which reproduces exactly the
// member order the append-per-group formulation built — input order
// within each group. The returned slice is valid until the next call.
func (gs *groupScratch) groupShared(idx []int, rect func(i int) geo.Rect) []sharedGroup {
	groups := gs.groups[:0]
	maxAreas := gs.maxAreas[:0]
	gid := gs.gid[:0]
	for _, i := range idx {
		r := rect(i)
		ra := r.Width() * r.Height()
		placed := -1
		for gi := range groups {
			if !groups[gi].union.Intersects(r) {
				continue
			}
			merged := groups[gi].union.Union(r)
			ma := maxAreas[gi]
			if ra > ma {
				ma = ra
			}
			if merged.Width()*merged.Height() <= groupGrowthCap*ma {
				groups[gi].union = merged
				maxAreas[gi] = ma
				placed = gi
				break
			}
		}
		if placed < 0 {
			placed = len(groups)
			groups = append(groups, sharedGroup{union: r})
			maxAreas = append(maxAreas, ra)
		}
		gid = append(gid, placed)
	}
	// Pass 2: count members per group, lay the groups out contiguously in
	// the arena (in group order), and fill by per-group cursor.
	offs := gs.offs[:0]
	for range groups {
		offs = append(offs, 0)
	}
	for _, g := range gid {
		offs[g]++
	}
	base := len(gs.arena)
	// Manual growth: the single make is the budget's one static site, and
	// it goes quiet once the arena has warmed to the steady batch size.
	if need := base + len(idx); cap(gs.arena) < need {
		na := make([]int, need, 2*need)
		copy(na, gs.arena)
		gs.arena = na
	}
	gs.arena = gs.arena[:base+len(idx)]
	start := base
	for gi := range groups {
		n := offs[gi]
		offs[gi] = start
		start += n
	}
	for j, i := range idx {
		g := gid[j]
		gs.arena[offs[g]] = i
		offs[g]++
	}
	start = base
	for gi := range groups {
		end := offs[gi] // cursor stopped at the group's region end
		groups[gi].members = gs.arena[start:end]
		start = end
	}
	gs.groups, gs.maxAreas, gs.gid, gs.offs = groups, maxAreas, gid, offs
	return groups
}
