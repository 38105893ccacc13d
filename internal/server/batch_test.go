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
// methods — the reference the shared-execution engine must bit-equal.
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
	if len(res.Items) != 0 || res.Groups != 0 || res.SharedHits != 0 {
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
	// Entries 0 and 2 overlap (one shared range descent); entries 1 and 4
	// overlap (one shared count probe); 3, 5, 6 stand alone.
	s.queryWorkers = 1
	res := s.BatchQuery(entries)
	if res.Groups != 5 {
		t.Errorf("Groups = %d, want 5", res.Groups)
	}
	if res.SharedHits != 2 {
		t.Errorf("SharedHits = %d, want 2", res.SharedHits)
	}
}

// TestBatchQueryInvalidEntryFailsAlone pins the failure-edge contract: an
// invalid entry inside what would be an overlapping group fails alone with
// a typed *BatchEntryError, and the valid members still bit-equal their
// solo answers — the bad entry never poisons the shared descent.
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
	// The two valid range entries overlap each other → one shared descent.
	if res.Groups != 1 || res.SharedHits != 1 {
		t.Errorf("Groups=%d SharedHits=%d, want 1/1 (invalid entries excluded from grouping)",
			res.Groups, res.SharedHits)
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
	if m.Batches != 1 || m.BatchEntries != 3 || m.BatchSharedHits != 1 {
		t.Errorf("metrics = Batches:%d Entries:%d SharedHits:%d, want 1/3/1",
			m.Batches, m.BatchEntries, m.BatchSharedHits)
	}
	// Per-class counters advance exactly as the sequential path would.
	if m.PrivateRangeQs != 2 || m.PrivateNNQs != 1 {
		t.Errorf("class counters = range:%d nn:%d, want 2/1", m.PrivateRangeQs, m.PrivateNNQs)
	}
}

// The pool the batch engine fans out on runs every unit exactly once.
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

// BenchmarkServerBatchPerQuery is the no-sharing baseline: the same mix
// answered one query at a time through the public methods.
func BenchmarkServerBatchPerQuery(b *testing.B) {
	s, entries := benchBatchServer(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sequentialBatch(s, entries)
	}
}

// BenchmarkServerBatchSequential measures shared execution alone:
// BatchQuery on the degenerate one-worker loop.
func BenchmarkServerBatchSequential(b *testing.B) {
	s, entries := benchBatchServer(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.BatchQuery(entries)
	}
}

// BenchmarkServerBatchParallel adds the worker pool on top of sharing.
func BenchmarkServerBatchParallel(b *testing.B) {
	s, entries := benchBatchServer(b, runtime.GOMAXPROCS(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.BatchQuery(entries)
	}
}
