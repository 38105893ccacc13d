package obs_test

import (
	"strconv"
	"sync"
	"testing"

	"repro/internal/obs"
)

func TestCounter(t *testing.T) {
	var c obs.Counter
	if c.Value() != 0 {
		t.Fatalf("zero value = %d", c.Value())
	}
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("value = %d, want 42", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g obs.Gauge
	g.Set(2.5)
	g.Add(1.5)
	g.Inc()
	g.Dec()
	if g.Value() != 4 {
		t.Fatalf("value = %g, want 4", g.Value())
	}
	g.Add(-10)
	if g.Value() != -6 {
		t.Fatalf("value = %g, want -6", g.Value())
	}
}

// TestConcurrent exercises every lock-free primitive from many goroutines;
// run under -race it also proves the implementations are data-race free,
// and the exact totals prove no increment is lost.
func TestConcurrent(t *testing.T) {
	const (
		goroutines = 8
		perG       = 10000
	)
	var (
		c  obs.Counter
		g  obs.Gauge
		wg sync.WaitGroup
	)
	reg := obs.NewRegistry()
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Concurrent get-or-create must converge on one series.
			h := reg.Histogram("t_hist", "h", []float64{1, 2, 4})
			rc := reg.Counter("t_count", "h")
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(j % 5))
				rc.Inc()
			}
		}(i)
	}
	wg.Wait()
	const want = goroutines * perG
	if c.Value() != want {
		t.Errorf("counter = %d, want %d", c.Value(), want)
	}
	if g.Value() != want {
		t.Errorf("gauge = %g, want %d", g.Value(), want)
	}
	s, ok := reg.Find("t_hist")
	if !ok || s.Hist.Count() != want {
		t.Errorf("histogram count = %d (found=%v), want %d", s.Hist.Count(), ok, want)
	}
	if s, _ := reg.Find("t_count"); s.Value != want {
		t.Errorf("registry counter = %g, want %d", s.Value, want)
	}
}

func TestRank(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want int
	}{
		{0, 50, 0},
		{-3, 50, 0},
		{10, 0, 0},
		{10, -5, 0},
		{10, 100, 9},
		{10, 150, 9},
		{1, 50, 0},
		{100, 50, 49},
		{100, 95, 94},
		{100, 99, 98},
		{4, 50, 1},
		{5, 50, 2},
	}
	for _, tc := range cases {
		if got := obs.Rank(tc.n, tc.p); got != tc.want {
			t.Errorf("Rank(%d, %g) = %d, want %d", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	reg := obs.NewRegistry()
	a := reg.Counter("x_total", "help", obs.L("alg", "quadtree"))
	b := reg.Counter("x_total", "help", obs.L("alg", "quadtree"))
	if a != b {
		t.Fatal("same (name, labels) must return the same handle")
	}
	other := reg.Counter("x_total", "help", obs.L("alg", "grid"))
	if a == other {
		t.Fatal("different label values must be distinct series")
	}
	a.Inc()
	if s, ok := reg.Find("x_total", obs.L("alg", "quadtree")); !ok || s.Value != 1 {
		t.Fatalf("Find = %+v, %v", s, ok)
	}
	if _, ok := reg.Find("x_total", obs.L("alg", "naive")); ok {
		t.Fatal("Find must miss an unregistered series")
	}
	// Label order must not matter.
	p := reg.Gauge("y", "h", obs.L("a", "1"), obs.L("b", "2"))
	q := reg.Gauge("y", "h", obs.L("b", "2"), obs.L("a", "1"))
	if p != q {
		t.Fatal("label order must not create a new series")
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("z_total", "h")
	mustPanic(t, "re-registering a counter as a gauge", func() { reg.Gauge("z_total", "h") })
	mustPanic(t, "a gauge under a new label set of a counter's name",
		func() { reg.Gauge("z_total", "h", obs.L("a", "1")) })
}

// mustPanic runs fn and fails unless it panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

func TestRegistryRefusesBadName(t *testing.T) {
	reg := obs.NewRegistry()
	for _, name := range []string{"", "Upper_total", "dashed-total", "9lives", "_lead", "spaced total"} {
		mustPanic(t, "registering "+strconv.Quote(name), func() { reg.Counter(name, "h") })
	}
	for _, name := range []string{"a", "anon_updates_total", "go_gc_pause_seconds", "x9_y"} {
		reg.Counter(name, "h")
	}
}

func TestRegistryRefusesHelpClash(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("x_total", "help", obs.L("alg", "quadtree"))
	mustPanic(t, "the same series with other help", func() {
		reg.Counter("x_total", "other help", obs.L("alg", "quadtree"))
	})
	mustPanic(t, "a new label set with other help", func() {
		reg.Counter("x_total", "other help", obs.L("alg", "grid"))
	})
}

func TestRegistryRefusesBoundsClash(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("h_seconds", "h", []float64{1, 2}, obs.L("op", "a"))
	if reg.Histogram("h_seconds", "h", nil, obs.L("op", "a")) != h {
		t.Fatal("nil bounds must address the existing series")
	}
	if reg.Histogram("h_seconds", "h", []float64{1, 2}, obs.L("op", "a")) != h {
		t.Fatal("equal bounds must address the existing series")
	}
	mustPanic(t, "the same series with other bounds", func() {
		reg.Histogram("h_seconds", "h", []float64{1, 3}, obs.L("op", "a"))
	})
	mustPanic(t, "a new label set with other bounds", func() {
		reg.Histogram("h_seconds", "h", obs.DefaultLatencyBuckets, obs.L("op", "b"))
	})
	// A new label set with nil bounds takes the name's bounds.
	reg.Histogram("h_seconds", "h", nil, obs.L("op", "c")).Observe(1.5)
	if s, _ := reg.Find("h_seconds", obs.L("op", "c")); len(s.Hist.Bounds) != 2 || s.Hist.Counts[1] != 1 {
		t.Fatalf("new label set: bounds %v counts %v, want the name's bounds [1 2]", s.Hist.Bounds, s.Hist.Counts)
	}
}

func TestExportSorted(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("bbb_total", "h")
	reg.Gauge("aaa", "h")
	reg.Counter("ccc_total", "h", obs.L("t", "y"))
	reg.Counter("ccc_total", "h", obs.L("t", "x"))
	out := reg.Export()
	if len(out) != 4 {
		t.Fatalf("exported %d series, want 4", len(out))
	}
	wantNames := []string{"aaa", "bbb_total", "ccc_total", "ccc_total"}
	for i, s := range out {
		if s.Name != wantNames[i] {
			t.Fatalf("export order %v", out)
		}
	}
	if out[2].Labels[0].Value != "x" || out[3].Labels[0].Value != "y" {
		t.Fatalf("label order not deterministic: %v then %v", out[2].Labels, out[3].Labels)
	}
}
