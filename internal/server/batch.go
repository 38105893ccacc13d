package server

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/grid"
	"repro/internal/par"
	"repro/internal/prob"
	"repro/internal/regidx"
	"repro/internal/rtree"
	"repro/internal/trace"
)

// This file implements BatchQuery, the database server's batch entry
// point, and the scratch every query path runs on. A batch admits a mix
// of private-range, private-NN and public-count queries, and each valid
// entry runs exactly the answer function its single-query method runs
// (answerRange, answerNN, answerCount): the memo lookup, then the kernel,
// then the resolution. So a batch entry and the same query asked alone
// cannot drift apart. The entries fan out over a worker pool
// (Config.QueryWorkers); a batch buys one frame for many queries and the
// pool's parallelism, and its entries share work only through the
// stationary store's answer memo (memo.go), which serves a repeat of any
// region asked before, in a batch or alone.
//
// Lock scope is the single path's, entry by entry: NN and class-filtered
// range entries read the immutable stationary store without a lock; an
// unfiltered range entry also scans the moving grid, and a count entry
// probes the region index, each under the read lock for its own index
// work only. Every entry is linearizable on its own; the entries of one
// batch do not read one snapshot.

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

// validate applies the checks of the entry's single-query method, so an
// invalid entry fails with that method's error text.
func (e *BatchEntry) validate() error {
	switch e.Kind {
	case BatchPrivateRange:
		return e.Range.validate()
	case BatchPrivateNN:
		return e.NN.validate()
	case BatchPublicCount:
		return e.Count.validate()
	default:
		return fmt.Errorf("server: unknown batch query kind %d", uint8(e.Kind))
	}
}

// BatchEntryError is the typed per-entry failure: an invalid query inside
// a batch fails alone, carrying its position and kind, and the other
// entries are answered as usual.
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
	// SharedHits counts the entries answered from the stationary store's
	// answer memo instead of their kernel.
	SharedHits int
}

// batchScratch is one worker's reusable buffer set. Each worker of the
// fan-out owns exactly one (indexed by worker id), so the entries one
// worker answers reuse the same backing arrays instead of reallocating
// per entry; a single query borrows worker 0's. Nothing here escapes into
// results: result slices are always freshly built, scratch only carries
// the intermediate streams — including the count kernel's output (pairs),
// which the caller must fold before the scratch runs its next query.
type batchScratch struct {
	items      []rtree.Item   // R-tree search or min–max candidate stream
	slots      []uint64       // the store slots of the last answer resolved, sorted
	moving     []grid.Object  // moving-grid search output
	movingObjs []PublicObject // one range answer's moving matches awaiting merge
	hits       []regidx.Hit   // region-index probe output: ids with their regions
	pairs      []UserProb     // count kernel output
	probs      []float64      // one count's probabilities awaiting the fold
	clamped    []float64      // RangeCountScratch clamp buffer
	comb       combineScratch // exact private-NN decision working set
	memoHits   int            // batch entries this worker answered from the memo
}

// batchCoord is the per-call coordination scratch: the admitted entries'
// indices and the per-worker buffer sets. Calls — batches and single
// queries alike — borrow one from the server's pool, so a steady stream
// of requests reuses the same backing arrays instead of rebuilding them
// per call; nothing in here escapes into results.
type batchCoord struct {
	valid     []int
	scratches []batchScratch
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

// singleQuery is one single-query call in flight: the borrowed
// coordinator whose first scratch the answer runs on, and the class span
// the call is timed and recorded under.
type singleQuery struct {
	c  *batchCoord
	sc *batchScratch
	sp trace.Span
}

// beginSingle opens a single query under its class span: every public
// per-query method is validate → beginSingle → the kind's answer →
// endSingle. The answer holds the read lock across index work only —
// never across the PDF fold or the NN decision, which run on scratch
// copies: milliseconds under RLock stall every UpdatePrivate and, through
// writer preference, every reader queued behind it.
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

// BatchQuery evaluates a mixed batch of queries and returns per-entry
// results in input order. Invalid entries fail alone with a
// *BatchEntryError; valid entries fan out to the configured worker pool
// (Config.QueryWorkers), each answered bit-identically to its per-query
// method.
func (s *Server) BatchQuery(entries []BatchEntry) BatchResult {
	return s.BatchQueryCtx(context.Background(), entries)
}

// BatchQueryCtx is BatchQuery under a context: for traced requests every
// phase (validate → fan-out with one span per entry → gather) is recorded
// under the caller's trace.
func (s *Server) BatchQueryCtx(ctx context.Context, entries []BatchEntry) BatchResult {
	res := BatchResult{Items: make([]BatchItemResult, len(entries))}
	if len(entries) == 0 {
		return res
	}
	bsp, ctx := s.met.batch.Start(ctx, s.tracer)
	workers := min(s.queryWorkers, len(entries))
	c := s.borrowCoord(workers)
	defer s.batchPool.Put(c)

	// Admission: every entry is checked exactly as its per-query method
	// checks it, and a failure is recorded on that entry alone.
	vsp, _ := trace.Start(ctx, s.tracer, "lbs_batch_validate")
	valid := c.valid[:0]
	for i := range entries {
		if err := entries[i].validate(); err != nil {
			res.Items[i].Err = &BatchEntryError{Index: i, Kind: entries[i].Kind, Err: err}
		} else {
			valid = append(valid, i)
		}
	}
	c.valid = valid
	if vsp.Recording() {
		vsp.SetAttrs(trace.Int("entries", int64(len(entries))), trace.Int("admitted", int64(len(valid))))
		vsp.End()
	}

	// Fan-out: each valid entry runs its kind's answer function on its
	// worker's scratch and writes its own result slot. Entry spans record
	// into the lock-free ring, so tracing adds no synchronization.
	fsp, fctx := trace.Start(ctx, s.tracer, "lbs_batch_fanout")
	for w := range c.scratches {
		c.scratches[w].memoHits = 0
	}
	items := res.Items
	par.For(len(valid), workers, func(w, k int) {
		i, sc := valid[k], &c.scratches[w]
		esp, _ := trace.Start(fctx, s.tracer, "lbs_batch_entry")
		e, out := &entries[i], &items[i]
		hit := false
		switch e.Kind {
		case BatchPrivateRange:
			out.Range, hit = s.answerRange(e.Range, sc)
		case BatchPrivateNN:
			out.NN, hit = s.answerNN(e.NN, sc)
		case BatchPublicCount:
			out.Count = s.answerCount(e.Count.Query, sc)
		}
		if hit {
			sc.memoHits++
		}
		if esp.Recording() {
			from := "kernel"
			if hit {
				from = "memo"
			}
			esp.SetAttrs(trace.Str("kind", e.Kind.String()), trace.Str("answer", from))
			esp.End()
		}
	})
	fsp.End()

	gsp, _ := trace.Start(ctx, s.tracer, "lbs_batch_gather")
	for w := range c.scratches {
		res.SharedHits += c.scratches[w].memoHits
	}
	s.met.batches.Inc()
	s.met.batchEntries.Add(uint64(len(entries)))
	s.met.batchSharedHits.Add(uint64(res.SharedHits))
	s.met.batchSize.Observe(float64(len(entries)))
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

// foldCount folds one query's (user, probability) pairs — unique per user
// — into the count answer. The probabilities are sorted before
// accumulation, so neither probe order nor the partition of the data
// (shards) can influence the PDF's floating-point sums.
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
