package server

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/geo"
	"repro/internal/par"
	"repro/internal/rng"
)

// mod1 wraps v into [0, 1) so synthetic moving-object walks stay in world.
func mod1(v float64) float64 { return v - float64(int(v)) }

// batchFixture loads a server with stationary objects, moving objects and
// private users so every batch query class has data to chew on.
func batchFixture(t testing.TB) *Server {
	t.Helper()
	s := newServer(t)
	loadObjects(t, s, 500, "gas", 3)
	for i := 0; i < 50; i++ {
		p := geo.Pt(mod1(0.013*float64(i+1)), mod1(0.019*float64(i+1)))
		if err := s.UpdateMoving(uint64(1000+i), p); err != nil {
			t.Fatal(err)
		}
	}
	loadPrivateUsers(t, s, 300, 0.05, 7)
	return s
}

// sequentialBatch answers the same entries through the per-query public
// methods — the reference every batch entry must bit-equal.
func sequentialBatch(s *Server, entries []BatchEntry) []BatchItemResult {
	out := make([]BatchItemResult, len(entries))
	for i, e := range entries {
		switch e.Kind {
		case BatchPrivateRange:
			r, err := s.PrivateRange(e.Range)
			if err != nil {
				out[i].Err = &BatchEntryError{Index: i, Kind: e.Kind, Err: err}
			} else {
				out[i].Range = r
			}
		case BatchPrivateNN:
			r, err := s.PrivateNN(e.NN)
			if err != nil {
				out[i].Err = &BatchEntryError{Index: i, Kind: e.Kind, Err: err}
			} else {
				out[i].NN = r
			}
		case BatchPublicCount:
			r, err := s.PublicRangeCount(e.Count)
			if err != nil {
				out[i].Err = &BatchEntryError{Index: i, Kind: e.Kind, Err: err}
			} else {
				out[i].Count = r
			}
		}
	}
	return out
}

// assertItemsEqual compares batch items against the sequential reference,
// bitwise (float equality included — the engine promises bit-identity).
func assertItemsEqual(t *testing.T, got, want []BatchItemResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("item count %d, want %d", len(got), len(want))
	}
	for i := range got {
		if (got[i].Err == nil) != (want[i].Err == nil) {
			t.Fatalf("item %d: err = %v, want %v", i, got[i].Err, want[i].Err)
		}
		if got[i].Err != nil {
			if got[i].Err.Error() != want[i].Err.Error() {
				t.Errorf("item %d: err %q, want %q", i, got[i].Err, want[i].Err)
			}
			continue
		}
		if !reflect.DeepEqual(got[i].Range, want[i].Range) {
			t.Errorf("item %d: range result diverges\n got %+v\nwant %+v", i, got[i].Range, want[i].Range)
		}
		if !reflect.DeepEqual(got[i].NN, want[i].NN) {
			t.Errorf("item %d: NN result diverges", i)
		}
		if !reflect.DeepEqual(got[i].Count, want[i].Count) {
			t.Errorf("item %d: count result diverges\n got %+v\nwant %+v", i, got[i].Count, want[i].Count)
		}
	}
}

func TestBatchQueryEmpty(t *testing.T) {
	s := newServer(t)
	res := s.BatchQuery(nil)
	if len(res.Items) != 0 || res.SharedHits != 0 {
		t.Errorf("empty batch returned %+v", res)
	}
	if m := s.Metrics(); m.Batches != 0 || m.BatchEntries != 0 {
		t.Errorf("empty batch counted in metrics: %+v", m)
	}
}

// TestBatchQueryMixedMatchesSequential: a mixed batch with overlapping and
// disjoint entries of all three kinds must bit-equal the sequential path.
func TestBatchQueryMixedMatchesSequential(t *testing.T) {
	s := batchFixture(t)
	entries := []BatchEntry{
		{Kind: BatchPrivateRange, Range: PrivateRangeQuery{Region: geo.R(0.1, 0.1, 0.3, 0.3), Radius: 0.05}},
		{Kind: BatchPublicCount, Count: PublicRangeCountQuery{Query: geo.R(0.2, 0.2, 0.5, 0.5)}},
		{Kind: BatchPrivateRange, Range: PrivateRangeQuery{Region: geo.R(0.25, 0.25, 0.4, 0.4), Radius: 0.05, Class: "gas", Mode: RangeRounded}},
		{Kind: BatchPrivateNN, NN: PrivateNNQuery{Region: geo.R(0.6, 0.6, 0.7, 0.7)}},
		{Kind: BatchPublicCount, Count: PublicRangeCountQuery{Query: geo.R(0.45, 0.45, 0.8, 0.8)}},
		{Kind: BatchPrivateRange, Range: PrivateRangeQuery{Region: geo.R(0.8, 0.05, 0.9, 0.15), Radius: 0.02}},
		{Kind: BatchPrivateNN, NN: PrivateNNQuery{Region: geo.R(0.1, 0.8, 0.2, 0.9), Class: "gas"}},
	}
	want := sequentialBatch(s, entries)
	for _, workers := range []int{1, 2, 4, 8} {
		s.queryWorkers = workers
		res := s.BatchQuery(entries)
		assertItemsEqual(t, res.Items, want)
	}
}

// TestBatchQueryInvalidEntryFailsAlone pins the failure-edge contract: an
// invalid entry among overlapping valid ones fails alone with a typed
// *BatchEntryError, and the valid entries still bit-equal their solo
// answers.
func TestBatchQueryInvalidEntryFailsAlone(t *testing.T) {
	s := batchFixture(t)
	entries := []BatchEntry{
		{Kind: BatchPrivateRange, Range: PrivateRangeQuery{Region: geo.R(0.1, 0.1, 0.4, 0.4), Radius: 0.05}},
		// Inverted rectangle: fails validation; overlaps entry 0's area.
		{Kind: BatchPrivateRange, Range: PrivateRangeQuery{Region: geo.Rect{Min: geo.Pt(0.3, 0.3)}, Radius: 0.05}},
		{Kind: BatchPrivateRange, Range: PrivateRangeQuery{Region: geo.R(0.35, 0.35, 0.5, 0.5), Radius: 0.05}},
		// Negative radius inside the same area.
		{Kind: BatchPrivateRange, Range: PrivateRangeQuery{Region: geo.R(0.2, 0.2, 0.3, 0.3), Radius: -1}},
		{Kind: BatchPublicCount, Count: PublicRangeCountQuery{Query: geo.Rect{Min: geo.Pt(1, 1)}}},
	}
	res := s.BatchQuery(entries)

	for _, bad := range []int{1, 3, 4} {
		var bee *BatchEntryError
		if !errors.As(res.Items[bad].Err, &bee) {
			t.Fatalf("item %d: error %v is not a *BatchEntryError", bad, res.Items[bad].Err)
		}
		if bee.Index != bad || bee.Kind != entries[bad].Kind {
			t.Errorf("item %d: error carries Index=%d Kind=%v, want Index=%d Kind=%v",
				bad, bee.Index, bee.Kind, bad, entries[bad].Kind)
		}
		// The per-entry error message matches the sequential path verbatim.
		var wantErr error
		switch entries[bad].Kind {
		case BatchPrivateRange:
			_, wantErr = s.PrivateRange(entries[bad].Range)
		case BatchPublicCount:
			_, wantErr = s.PublicRangeCount(entries[bad].Count)
		}
		if wantErr == nil || bee.Err.Error() != wantErr.Error() {
			t.Errorf("item %d: cause %q, want sequential error %q", bad, bee.Err, wantErr)
		}
	}

	// Valid members answered bit-identically to their solo runs.
	for _, good := range []int{0, 2} {
		solo, err := s.PrivateRange(entries[good].Range)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Items[good].Range, solo) {
			t.Errorf("item %d: result diverges from solo run", good)
		}
	}
}

func TestBatchQueryUnknownKind(t *testing.T) {
	s := newServer(t)
	res := s.BatchQuery([]BatchEntry{{Kind: BatchKind(99)}})
	var bee *BatchEntryError
	if !errors.As(res.Items[0].Err, &bee) {
		t.Fatalf("unknown kind error = %v, want *BatchEntryError", res.Items[0].Err)
	}
	if bee.Index != 0 || bee.Kind != BatchKind(99) {
		t.Errorf("error = %+v", bee)
	}
}

func TestBatchQueryMetrics(t *testing.T) {
	s := batchFixture(t)
	entries := []BatchEntry{
		{Kind: BatchPrivateRange, Range: PrivateRangeQuery{Region: geo.R(0.1, 0.1, 0.3, 0.3), Radius: 0.05}},
		{Kind: BatchPrivateRange, Range: PrivateRangeQuery{Region: geo.R(0.2, 0.2, 0.4, 0.4), Radius: 0.05}},
		{Kind: BatchPrivateNN, NN: PrivateNNQuery{Region: geo.R(0.6, 0.6, 0.7, 0.7)}},
	}
	s.BatchQuery(entries)
	m := s.Metrics()
	if m.Batches != 1 || m.BatchEntries != 3 {
		t.Errorf("metrics = Batches:%d Entries:%d, want 1/3", m.Batches, m.BatchEntries)
	}
	// Per-class counters advance exactly as the sequential path would.
	if m.PrivateRangeQs != 2 || m.PrivateNNQs != 1 {
		t.Errorf("class counters = range:%d nn:%d, want 2/1", m.PrivateRangeQs, m.PrivateNNQs)
	}
}

// TestBatchMemoSharesAnswersWithSingleQueries checks that a batch entry
// and the same query asked alone share the stationary store's answer
// memo, in both orders: a batch NN entry and a class-filtered range entry
// are memo hits after the same single queries, and single queries are
// memo hits after the same batch entries. BatchResult.SharedHits and
// Metrics().BatchSharedHits count exactly the batch entries the memo
// answered; unfiltered range and count entries never consult it.
func TestBatchMemoSharesAnswersWithSingleQueries(t *testing.T) {
	s := batchFixture(t)
	st := s.stationary()
	// Two regions whose four memoizable keys take four table positions
	// (the placement is seeded at random per store), so no answer evicts
	// another.
	regions := []geo.Rect{geo.R(0.6, 0.6, 0.7, 0.7), geo.R(0.1, 0.8, 0.2, 0.9)}
	for placed := map[int]bool{}; len(placed) < 4; regions[0].Max.X, regions[1].Max.X = regions[0].Max.X+1e-3, regions[1].Max.X+1e-3 {
		clear(placed)
		for _, r := range regions {
			nk, rk := st.memoKey(memoNN, r, "gas", 0, 0), st.memoKey(memoRange, r, "gas", 0.05, RangeRounded)
			placed[st.memo.index(&nk)], placed[st.memo.index(&rk)] = true, true
		}
	}
	batchOf := func(r geo.Rect) []BatchEntry {
		return []BatchEntry{
			{Kind: BatchPrivateNN, NN: PrivateNNQuery{Region: r, Class: "gas"}},
			{Kind: BatchPrivateRange, Range: PrivateRangeQuery{Region: r, Radius: 0.05, Class: "gas"}},
			{Kind: BatchPrivateRange, Range: PrivateRangeQuery{Region: r, Radius: 0.05}},
			{Kind: BatchPublicCount, Count: PublicRangeCountQuery{Query: r}},
		}
	}
	check := func(step string, res BatchResult, wantShared int, wantHits, wantMisses uint64) {
		t.Helper()
		if hits, misses := memoCounts(s); hits != wantHits || misses != wantMisses {
			t.Errorf("%s: memo %d hits, %d misses, want %d and %d", step, hits, misses, wantHits, wantMisses)
		}
		if res.SharedHits != wantShared {
			t.Errorf("%s: SharedHits = %d, want %d", step, res.SharedHits, wantShared)
		}
	}

	// Single queries first: they miss, and the batch's two memoizable
	// entries then hit.
	first := batchOf(regions[0])
	want := sequentialBatch(s, first)
	check("single queries", BatchResult{}, 0, 0, 2)
	res := s.BatchQuery(first)
	assertItemsEqual(t, res.Items, want)
	check("batch after single queries", res, 2, 2, 2)

	// The batch first: its two memoizable entries miss, and the single
	// queries then hit.
	second := batchOf(regions[1])
	res = s.BatchQuery(second)
	check("batch", res, 0, 2, 4)
	assertItemsEqual(t, res.Items, sequentialBatch(s, second))
	check("single queries after the batch", BatchResult{}, 0, 4, 4)

	if m := s.Metrics(); m.BatchSharedHits != 2 || m.BatchEntries != 8 {
		t.Errorf("metrics: BatchSharedHits %d of %d entries, want 2 of 8", m.BatchSharedHits, m.BatchEntries)
	}
}

// The pool a batch fans out on runs every entry exactly once.
func TestParallelForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		hits := make([]int32, 100)
		par.For(len(hits), workers, func(_, i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, h)
			}
		}
	}
}

// benchBatchServer loads the benchmark fixture once per benchmark.
func benchBatchServer(b *testing.B, workers int) (*Server, []BatchEntry) {
	b.Helper()
	s := newServer(b)
	loadObjects(b, s, 5000, "gas", 3)
	loadPrivateUsers(b, s, 5000, 0.03, 7)
	s.queryWorkers = workers
	entries := buildDiffBatch(rng.New(99), 64)
	return s, entries
}

// BenchmarkServerBatchPerQuery is the baseline: the same mix answered one
// query at a time through the public methods.
func BenchmarkServerBatchPerQuery(b *testing.B) {
	s, entries := benchBatchServer(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sequentialBatch(s, entries)
	}
}

// BenchmarkServerBatchSequential measures BatchQuery on the degenerate
// one-worker loop.
func BenchmarkServerBatchSequential(b *testing.B) {
	s, entries := benchBatchServer(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.BatchQuery(entries)
	}
}

// BenchmarkServerBatchParallel adds the worker pool.
func BenchmarkServerBatchParallel(b *testing.B) {
	s, entries := benchBatchServer(b, runtime.GOMAXPROCS(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.BatchQuery(entries)
	}
}
