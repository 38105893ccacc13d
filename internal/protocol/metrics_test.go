package protocol

import (
	"errors"
	"math"
	"testing"

	"repro/internal/anonymizer"
	"repro/internal/codec"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/privacy"
	"repro/internal/server"
)

func TestMetricsRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("rt_requests_total", "Requests.", obs.L("type", "update")).Add(7)
	reg.Gauge("rt_active", "Active.").Set(-2.5)
	h := reg.Histogram("rt_latency_seconds", "Latency.", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(3)

	in := reg.Export()
	out, err := DecodeMetrics(encodeMetrics(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d series, want %d", len(out), len(in))
	}
	for i := range in {
		a, b := in[i], out[i]
		if a.Name != b.Name || a.Help != b.Help || a.Kind != b.Kind {
			t.Errorf("series %d header: %+v vs %+v", i, a, b)
		}
		if len(a.Labels) != len(b.Labels) {
			t.Fatalf("series %d labels: %v vs %v", i, a.Labels, b.Labels)
		}
		for j := range a.Labels {
			if a.Labels[j] != b.Labels[j] {
				t.Errorf("series %d label %d: %v vs %v", i, j, a.Labels[j], b.Labels[j])
			}
		}
		switch a.Kind {
		case obs.KindCounter, obs.KindGauge:
			if a.Value != b.Value {
				t.Errorf("series %s value: %g vs %g", a.Name, a.Value, b.Value)
			}
		case obs.KindHistogram:
			if len(a.Hist.Bounds) != len(b.Hist.Bounds) || len(a.Hist.Counts) != len(b.Hist.Counts) {
				t.Fatalf("series %s layout: %+v vs %+v", a.Name, a.Hist, b.Hist)
			}
			for j := range a.Hist.Bounds {
				if a.Hist.Bounds[j] != b.Hist.Bounds[j] {
					t.Errorf("series %s bound %d: %g vs %g", a.Name, j, a.Hist.Bounds[j], b.Hist.Bounds[j])
				}
			}
			for j := range a.Hist.Counts {
				if a.Hist.Counts[j] != b.Hist.Counts[j] {
					t.Errorf("series %s count %d: %d vs %d", a.Name, j, a.Hist.Counts[j], b.Hist.Counts[j])
				}
			}
			if a.Hist.Sum != b.Hist.Sum {
				t.Errorf("series %s sum: %g vs %g", a.Name, a.Hist.Sum, b.Hist.Sum)
			}
		}
	}
	// The decoded snapshot must still merge and answer quantiles — that is
	// what the load tools do with it.
	var hs *obs.MetricSnapshot
	for i := range out {
		if out[i].Kind == obs.KindHistogram {
			hs = &out[i]
		}
	}
	if hs == nil {
		t.Fatal("no histogram decoded")
	}
	if err := hs.Hist.Merge(hs.Hist); err != nil {
		t.Fatalf("self-merge: %v", err)
	}
	if got := hs.Hist.Count(); got != 6 {
		t.Fatalf("merged count = %d, want 6", got)
	}
	// Merged samples sorted: {0.0005 ×2, 0.05 ×2, 3 ×2}; Rank(6, 50) = 2,
	// so the p50 sample is 0.05, inside the (0.01, 0.1] bucket.
	if q := hs.Hist.Quantile(50); !(q > 0.01 && q <= 0.1) {
		t.Errorf("p50 = %g, want inside (0.01, 0.1]", q)
	}
}

func TestMetricsEncodeInfBounds(t *testing.T) {
	// privacy.Unconstrained areas put +Inf through F64 elsewhere; make sure
	// histogram payloads preserve non-finite sums (NaN never occurs, +Inf
	// can after merging abusive inputs) and large counts.
	in := []obs.MetricSnapshot{{
		Name: "x", Kind: obs.KindHistogram,
		Hist: obs.HistogramSnapshot{
			Bounds: []float64{1},
			Counts: []uint64{math.MaxUint64, 1},
			Sum:    math.Inf(1),
		},
	}}
	out, err := DecodeMetrics(encodeMetrics(in))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Hist.Counts[0] != math.MaxUint64 || !math.IsInf(out[0].Hist.Sum, 1) {
		t.Fatalf("non-finite round trip: %+v", out[0].Hist)
	}
}

func TestDecodeMetricsRejectsGarbage(t *testing.T) {
	if _, err := DecodeMetrics([]byte{0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Fatal("forged series count must fail, not allocate")
	}
	var e codec.Encoder
	e.U32(1)
	e.Str("m").Str("").U8(9) // unknown kind
	e.U16(0)
	if _, err := DecodeMetrics(e.Bytes()); err == nil {
		t.Fatal("unknown metric kind must fail")
	}
}

// TestMetricsOverLoopback drives a live instrumented anonymizer+database
// pair and fetches their registries with MsgMetrics, checking that each
// tier's series arrive with observations.
func TestMetricsOverLoopback(t *testing.T) {
	dbReg := obs.NewRegistry()
	srv, err := server.New(server.Config{World: world, Metrics: dbReg})
	if err != nil {
		t.Fatal(err)
	}
	dbSvc, err := ServeDatabase("127.0.0.1:0", srv, quiet, WithMetrics(dbReg))
	if err != nil {
		t.Fatal(err)
	}
	defer dbSvc.Close()
	fwd, err := DialDatabase(dbSvc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()
	anonReg := obs.NewRegistry()
	anon, err := anonymizer.New(anonymizer.Config{
		World: world, Forward: fwd.UpdatePrivate, Metrics: anonReg,
	})
	if err != nil {
		t.Fatal(err)
	}
	anonSvc, err := ServeAnonymizer("127.0.0.1:0", anon, quiet, WithMetrics(anonReg))
	if err != nil {
		t.Fatal(err)
	}
	defer anonSvc.Close()
	user, err := DialAnonymizer(anonSvc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer user.Close()
	admin, err := DialDatabase(dbSvc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	// Traffic through all three tiers.
	if err := admin.LoadStationary([]server.PublicObject{
		{ID: 1, Class: "gas", Loc: geo.Pt(0.2, 0.2)},
		{ID: 2, Class: "gas", Loc: geo.Pt(0.8, 0.8)},
	}); err != nil {
		t.Fatal(err)
	}
	prof := privacy.Constant(privacy.Requirement{K: 2})
	for i := uint64(1); i <= 8; i++ {
		if err := user.Register(i, prof); err != nil {
			t.Fatal(err)
		}
		if _, err := user.Update(i, geo.Pt(0.1*float64(i), 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := user.CloakQuery(3, geo.Pt(0.3, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := admin.PrivateNN(server.PrivateNNQuery{Region: res.Region, Class: "gas"}); err != nil {
		t.Fatal(err)
	}

	find := func(series []obs.MetricSnapshot, name string) *obs.MetricSnapshot {
		for i := range series {
			if series[i].Name == name {
				return &series[i]
			}
		}
		return nil
	}

	anonSeries, err := user.Metrics()
	if err != nil {
		t.Fatalf("anonymizer metrics: %v", err)
	}
	if s := find(anonSeries, "anon_updates_total"); s == nil || s.Value < 8 {
		t.Errorf("anon_updates_total = %+v, want >= 8", s)
	}
	if s := find(anonSeries, "anon_cloak_seconds"); s == nil || s.Hist.Count() < 9 {
		t.Errorf("anon_cloak_seconds missing or empty: %+v", s)
	}
	if s := find(anonSeries, "proto_request_seconds"); s == nil || s.Hist.Count() == 0 {
		t.Errorf("anonymizer proto_request_seconds missing or empty: %+v", s)
	}
	if s := find(anonSeries, "proto_active_connections"); s == nil || s.Value < 1 {
		t.Errorf("proto_active_connections = %+v, want >= 1", s)
	}

	dbSeries, err := admin.Metrics()
	if err != nil {
		t.Fatalf("database metrics: %v", err)
	}
	if s := find(dbSeries, "lbs_private_users"); s == nil || s.Value != 8 {
		t.Errorf("lbs_private_users = %+v, want 8", s)
	}
	if s := find(dbSeries, "lbs_query_seconds"); s == nil || s.Hist.Count() == 0 {
		t.Errorf("lbs_query_seconds missing or empty: %+v", s)
	}
	if s := find(dbSeries, "lbs_index_node_visits"); s == nil || s.Hist.Count() == 0 {
		t.Errorf("lbs_index_node_visits missing or empty: %+v", s)
	}
	if s := find(dbSeries, "proto_frame_bytes"); s == nil || s.Hist.Count() == 0 || s.Hist.Sum == 0 {
		t.Errorf("proto_frame_bytes missing or empty (its _sum is the bytes read): %+v", s)
	}

	// A second fetch must see the first one's request accounted for.
	dbSeries2, err := admin.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i := range dbSeries2 {
		s := dbSeries2[i]
		if s.Name == "proto_request_seconds" {
			for _, l := range s.Labels {
				if l.Key == "type" && l.Value == "metrics" {
					found = true
					if s.Hist.Count() < 1 {
						t.Errorf("proto_request_seconds{type=metrics} _count = %d", s.Hist.Count())
					}
				}
			}
		}
	}
	if !found {
		t.Error("MsgMetrics requests not counted by the service layer")
	}
}

// TestMetricsUninstrumentedPeer checks that a plain service (no
// WithMetrics) answers MsgMetrics with a remote error the load tools can
// detect and skip.
func TestMetricsUninstrumentedPeer(t *testing.T) {
	srv, err := server.New(server.Config{World: world})
	if err != nil {
		t.Fatal(err)
	}
	dbSvc, err := ServeDatabase("127.0.0.1:0", srv, quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer dbSvc.Close()
	c, err := DialDatabase(dbSvc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Metrics(); !errors.Is(err, ErrRemote) {
		t.Fatalf("uninstrumented peer: err = %v, want ErrRemote", err)
	}
}

// TestMetricsConcurrentFetch hammers a live service with parallel traffic
// and metric fetches; under -race this proves Export and the hot paths
// coexist.
func TestMetricsConcurrentFetch(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := server.New(server.Config{World: world, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := ServeDatabase("127.0.0.1:0", srv, quiet, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	done := make(chan error, 2)
	go func() {
		c, err := DialDatabase(svc.Addr())
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		for i := 0; i < 50; i++ {
			if err := c.UpdatePrivate(uint64(i+1), geo.R(0.1, 0.1, 0.2, 0.2)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	go func() {
		c, err := DialDatabase(svc.Addr())
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		for i := 0; i < 50; i++ {
			if _, err := c.Metrics(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if s, ok := reg.Find("lbs_private_users"); !ok || s.Value != 50 {
		t.Fatalf("lbs_private_users = %+v (ok=%v), want 50", s, ok)
	}
}
