package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// A tracer with Sample=1 records every root; Sample=0 records none but
// still obeys incoming sampled contexts (propagation-only mode).
func TestSampling(t *testing.T) {
	always := New(Config{Process: "p", Sample: 1})
	for i := 0; i < 100; i++ {
		sp := always.StartRoot("proto_request")
		if !sp.Recording() {
			t.Fatalf("root %d not sampled at rate 1", i)
		}
		sp.End()
	}
	if got := len(always.Snapshot()); got != 100 {
		t.Fatalf("snapshot has %d spans, want 100", got)
	}

	never := New(Config{Process: "p", Sample: 0})
	for i := 0; i < 100; i++ {
		if never.StartRoot("proto_request").Recording() {
			t.Fatal("root sampled at rate 0")
		}
	}
	// Propagation: an incoming sampled context is recorded regardless.
	sp := never.StartSpan(SpanContext{TraceID: 42, SpanID: 7, Flags: FlagSampled}, "proto_serve")
	if !sp.Recording() {
		t.Fatal("propagated sampled trace not recorded at local rate 0")
	}
	sp.End()
	snap := never.Snapshot()
	if len(snap) != 1 || snap[0].TraceID != 42 || snap[0].ParentID != 7 {
		t.Fatalf("propagated span wrong: %+v", snap)
	}
}

// A fractional rate must accept roughly that fraction of roots — the
// threshold test runs on mixed ids, so the law of large numbers applies.
func TestSamplingFraction(t *testing.T) {
	tr := New(Config{Process: "p", Sample: 0.25})
	sampled := 0
	const n = 4000
	for i := 0; i < n; i++ {
		if sp := tr.StartRoot("proto_request"); sp.Recording() {
			sampled++
			sp.End()
		}
	}
	frac := float64(sampled) / n
	if frac < 0.15 || frac > 0.35 {
		t.Fatalf("sampled fraction %.3f, want ~0.25", frac)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	sp := tr.StartRoot("proto_request")
	if sp.Recording() {
		t.Fatal("nil tracer recorded")
	}
	sp.SetAttrs(Int("x", 1))
	sp.End() // must not panic
	if tr.Snapshot() != nil {
		t.Fatal("nil tracer snapshot not nil")
	}
	if tr.Process() != "" {
		t.Fatal("nil tracer process not empty")
	}
	child, ctx := Start(NewContext(context.Background(),
		SpanContext{TraceID: 1, Flags: FlagSampled}), tr, "proto_call")
	if child.Recording() {
		t.Fatal("nil tracer child recorded")
	}
	if _, ok := FromContext(ctx); !ok {
		t.Fatal("context lost its span context")
	}
}

// The ring holds the most recent Ring spans; older ones are evicted.
func TestRingWraparound(t *testing.T) {
	tr := New(Config{Process: "p", Sample: 1, Ring: 8})
	for i := 0; i < 50; i++ {
		tr.StartRoot("proto_request").End()
	}
	snap := tr.Snapshot()
	if len(snap) != 8 {
		t.Fatalf("ring holds %d spans, want 8", len(snap))
	}
}

// Slow spans survive ring churn via the pinned slow ring; Snapshot
// deduplicates spans present in both rings.
func TestSlowPinning(t *testing.T) {
	tr := New(Config{Process: "p", Sample: 1, Ring: 4, SlowThreshold: time.Millisecond})
	slow := tr.StartRoot("proto_request")
	time.Sleep(5 * time.Millisecond)
	slow.End()
	slowID := slow.Context().TraceID
	// No churn yet: the slow span sits in both rings but must appear once.
	if snap := tr.Snapshot(); len(snap) != 1 {
		t.Fatalf("pre-churn snapshot has %d spans, want 1 (dedup)", len(snap))
	}
	// Churn the main ring far past capacity with fast spans.
	for i := 0; i < 64; i++ {
		tr.StartRoot("proto_request").End()
	}
	found := false
	for _, rec := range tr.Snapshot() {
		if rec.TraceID == slowID {
			found = true
		}
	}
	if !found {
		t.Fatal("slow span evicted despite pinning")
	}
}

// Context propagation builds the parent/child chain across Start calls.
func TestContextPropagation(t *testing.T) {
	tr := New(Config{Process: "p", Sample: 1})
	root := tr.StartRoot("proto_request")
	ctx := NewContext(context.Background(), root.Context())

	mid, ctx2 := Start(ctx, tr, "proto_call")
	leaf, _ := Start(ctx2, tr, "proto_backoff")
	leaf.End()
	mid.End()
	root.End()

	byName := map[string]SpanRecord{}
	for _, rec := range tr.Snapshot() {
		byName[rec.Name] = rec
	}
	if len(byName) != 3 {
		t.Fatalf("want 3 spans, got %d", len(byName))
	}
	r, m, l := byName["proto_request"], byName["proto_call"], byName["proto_backoff"]
	if r.ParentID != 0 {
		t.Fatalf("root has parent %x", r.ParentID)
	}
	if m.ParentID != r.SpanID || l.ParentID != m.SpanID {
		t.Fatalf("broken chain: root=%x mid(parent=%x id=%x) leaf(parent=%x)",
			r.SpanID, m.ParentID, m.SpanID, l.ParentID)
	}
	if r.TraceID != m.TraceID || m.TraceID != l.TraceID {
		t.Fatal("spans split across trace ids")
	}
}

// A stage span is its histogram's one observation site: End observes
// every span, inert or recording, and a recording span's observation
// carries its trace id as the bucket exemplar with the same duration the
// ring records. An inert stage span allocates nothing.
func TestStageFeedsHistogram(t *testing.T) {
	tr := New(Config{Process: "p", Sample: 1})
	hist := obs.NewRegistry().Histogram("proto_stage_seconds", "h", obs.DefaultLatencyBuckets)
	stage := NewStage("proto_stage", hist)

	inert, ctx := stage.Start(context.Background(), tr)
	if inert.Recording() || ctx != context.Background() {
		t.Fatal("untraced stage span recorded or derived a context")
	}
	inert.End()
	if s := hist.Snapshot(); s.Count() != 1 || s.Exemplars != nil {
		t.Fatalf("inert stage span: count %d exemplars %v, want 1 and none", s.Count(), s.Exemplars)
	}

	root := tr.StartRoot("proto_request")
	sp, _ := stage.Start(NewContext(context.Background(), root.Context()), tr)
	time.Sleep(time.Millisecond)
	sp.End()
	root.End()
	var rec SpanRecord
	for _, r := range tr.Snapshot() {
		if r.Name == "proto_stage" {
			rec = r
		}
	}
	s := hist.Snapshot()
	if s.Count() != 2 || s.Sum < time.Duration(rec.Dur).Seconds() {
		t.Fatalf("recording stage span: count %d sum %g, want 2 and ≥ %v", s.Count(), s.Sum, time.Duration(rec.Dur))
	}
	if got := s.ExemplarNear(100); got != root.Context().TraceID {
		t.Fatalf("exemplar %x, want the trace id %x", got, root.Context().TraceID)
	}

	if allocs := testing.AllocsPerRun(100, func() {
		sp, _ := stage.Start(context.Background(), tr)
		sp.End()
	}); allocs != 0 {
		t.Fatalf("inert stage span: %.0f allocations, want 0", allocs)
	}
}

// A stage name is checked where the stage is declared; a span name when
// the span records, so an unsampled start of a bad name costs nothing.
func TestBadNamesPanic(t *testing.T) {
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	hist := obs.NewRegistry().Histogram("proto_stage_seconds", "h", nil)
	mustPanic("NewStage(\"Proto-Stage\")", func() { NewStage("Proto-Stage", hist) })
	mustPanic("NewStage(\"\")", func() { NewStage("", hist) })

	tr := New(Config{Process: "p", Sample: 1})
	mustPanic("a recording root named \"Bad Root\"", func() { tr.StartRoot("Bad Root") })
	sc := SpanContext{TraceID: 1, SpanID: 2, Flags: FlagSampled}
	mustPanic("a recording child named \"bad-child\"", func() { tr.StartSpan(sc, "bad-child") })
	if sp := New(Config{Process: "p"}).StartRoot("Bad Root"); sp.Recording() {
		t.Fatal("an unsampled root recorded")
	}
	tr.StartSpan(SpanContext{}, "bad-child").End() // unsampled: not checked
}

// The exported Chrome trace must be valid JSON with one event per span
// plus one process_name metadata event per process.
func TestChromeJSONValid(t *testing.T) {
	tr := New(Config{Process: "client", Sample: 1})
	sp := tr.StartRoot("proto_request")
	sp.SetAttrs(Str("type", "update"), Int("attempt", 3))
	sp.End()
	other := SpanRecord{TraceID: sp.Context().TraceID, SpanID: 999, ParentID: sp.Context().SpanID,
		Name: "proto_serve", Proc: "lbsd", Start: time.Now().UnixNano(), Dur: 1000}

	var buf bytes.Buffer
	if err := WriteChromeJSON(&buf, Merge(tr.Snapshot(), []SpanRecord{other})); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string          `json:"ph"`
			Pid  int             `json:"pid"`
			Name string          `json:"name"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	var meta, complete int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if meta != 2 || complete != 2 {
		t.Fatalf("got %d metadata + %d complete events, want 2 + 2", meta, complete)
	}
	if !strings.Contains(buf.String(), `"attempt":3`) {
		t.Fatal("int attribute missing from args")
	}
}

func TestMergeDedupes(t *testing.T) {
	a := SpanRecord{TraceID: 1, SpanID: 2, Proc: "p", Start: 10}
	b := SpanRecord{TraceID: 1, SpanID: 3, Proc: "p", Start: 5}
	merged := Merge([]SpanRecord{a, b}, []SpanRecord{a})
	if len(merged) != 2 {
		t.Fatalf("merge kept %d spans, want 2", len(merged))
	}
	if merged[0].SpanID != 3 {
		t.Fatal("merge not ordered by start time")
	}
}

// Summarize attributes self-time (duration minus direct children) per
// proc/stage and ranks traces slowest-root first.
func TestSummarize(t *testing.T) {
	spans := []SpanRecord{
		{TraceID: 1, SpanID: 10, ParentID: 0, Name: "load_update", Proc: "client", Dur: 100},
		{TraceID: 1, SpanID: 11, ParentID: 10, Name: "proto_call", Proc: "client", Dur: 80},
		{TraceID: 1, SpanID: 12, ParentID: 11, Name: "proto_serve", Proc: "anonymizer", Dur: 60},
		{TraceID: 2, SpanID: 20, ParentID: 0, Name: "load_update", Proc: "client", Dur: 30},
	}
	sums := Summarize(spans)
	if len(sums) != 2 {
		t.Fatalf("got %d summaries, want 2", len(sums))
	}
	if sums[0].TraceID != 1 || sums[1].TraceID != 2 {
		t.Fatalf("not ordered slowest first: %v, %v", sums[0].TraceID, sums[1].TraceID)
	}
	s := sums[0]
	if s.Root.SpanID != 10 || s.Spans != 3 {
		t.Fatalf("root/span count wrong: %+v", s)
	}
	want := map[string]time.Duration{
		"client/load_update":     20,
		"client/proto_call":      20,
		"anonymizer/proto_serve": 60,
	}
	for k, v := range want {
		if s.Self[k] != v {
			t.Fatalf("self[%s] = %v, want %v (all: %v)", k, s.Self[k], v, s.Self)
		}
	}
}

// A trace whose root was evicted still summarizes, with the longest
// surviving span standing in as root.
func TestSummarizeOrphan(t *testing.T) {
	spans := []SpanRecord{
		{TraceID: 9, SpanID: 2, ParentID: 1, Name: "proto_call", Proc: "client", Dur: 50},
		{TraceID: 9, SpanID: 3, ParentID: 2, Name: "proto_serve", Proc: "lbsd", Dur: 40},
	}
	sums := Summarize(spans)
	if len(sums) != 1 || sums[0].Root.SpanID != 2 {
		t.Fatalf("orphan root selection wrong: %+v", sums)
	}
}

func TestHandler(t *testing.T) {
	var nilTracer *Tracer
	rw := httptest.NewRecorder()
	nilTracer.Handler().ServeHTTP(rw, httptest.NewRequest("GET", "/traces", nil))
	if rw.Code != 404 {
		t.Fatalf("nil tracer handler status %d, want 404", rw.Code)
	}

	tr := New(Config{Process: "p", Sample: 1})
	tr.StartRoot("proto_request").End()
	rw = httptest.NewRecorder()
	tr.Handler().ServeHTTP(rw, httptest.NewRequest("GET", "/traces", nil))
	if rw.Code != 200 {
		t.Fatalf("handler status %d", rw.Code)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(rw.Body.Bytes(), &doc); err != nil {
		t.Fatalf("handler body not JSON: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Fatal("handler body missing traceEvents")
	}
}

// The span ring is lock-free: concurrent writers and snapshot readers
// must be race-clean (run under -race) and never lose the ring's
// capacity worth of recent spans.
func TestRingConcurrentStress(t *testing.T) {
	tr := New(Config{Process: "p", Sample: 1, Ring: 64})
	const writers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				sp := tr.StartRoot("proto_request")
				sp.SetAttrs(Int("writer", int64(w)), Int("i", int64(i)))
				sp.End()
			}
		}(w)
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, rec := range tr.Snapshot() {
				if rec.Name != "proto_request" {
					panic("torn span record")
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone

	if got := len(tr.Snapshot()); got != 64 {
		t.Fatalf("ring holds %d spans after stress, want 64", got)
	}
}
