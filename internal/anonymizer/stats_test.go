package anonymizer

import (
	"errors"
	"maps"
	"testing"
	"time"

	"repro/internal/cloak"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/privacy"
)

// exportedSeries returns the anonymizer's unlabelled counters and gauges as
// its registry exports them (export hooks included).
func exportedSeries(a *Anonymizer) map[string]float64 {
	out := map[string]float64{}
	for _, m := range a.Registry().Export() {
		if m.Kind != obs.KindHistogram && len(m.Labels) == 0 {
			out[m.Name] = m.Value
		}
	}
	return out
}

// pinStats asserts that every Stats field equals the series it is a view
// of. The replay loop may move the forward series at any moment, so the
// comparison uses a Stats read taken between two identical exports.
func pinStats(t *testing.T, a *Anonymizer, phase string) (Stats, map[string]float64) {
	t.Helper()
	for attempt := 0; attempt < 100; attempt++ {
		before := exportedSeries(a)
		st := a.Stats()
		if !maps.Equal(before, exportedSeries(a)) {
			continue
		}
		for _, f := range []struct {
			series string
			stat   float64
		}{
			{"anon_registered_users", float64(st.Registered)},
			{"anon_updates_total", float64(st.Updates)},
			{"anon_queries_total", float64(st.Queries)},
			{"anon_reuse_hits_total", float64(st.Reused)},
			{"anon_cloak_relaxations_total", float64(st.BestEffort)},
			{"anon_forwarded_total", float64(st.Forwarded)},
			{"anon_forward_errors_total", float64(st.ForwardErrs)},
			{"anon_batches_total", float64(st.Batches)},
			{"anon_batch_shared_hits_total", float64(st.SharedHits)},
			{"anon_forward_spills_total", float64(st.Spilled)},
			{"anon_forward_replays_total", float64(st.Replayed)},
			{"anon_forward_queue_drops_total", float64(st.Dropped)},
			{"anon_forward_queue_depth", float64(st.QueueDepth)},
		} {
			if got, ok := before[f.series]; !ok || got != f.stat {
				t.Errorf("%s: %s exports %g (present %v), Stats reads %g", phase, f.series, got, ok, f.stat)
			}
		}
		return st, before
	}
	t.Fatalf("%s: the series never held still across a Stats read", phase)
	return Stats{}, nil
}

// Stats is a view of the anon_* series: through single updates and cloak
// queries (incremental reuse and best effort included), batches with
// shared descents, a downstream outage that spills, coalesces, evicts and
// replays, and backpressure sheds, every field reads what its series
// exports — and a drained queue exports depth 0.
func TestStatsReadTheSeries(t *testing.T) {
	fwd := newFlakyForwarder()
	a := newAnon(t, Config{Incremental: true, Shards: 2, Forward: fwd.forward, ForwardQueue: 4,
		ForwardRetryBase: 5 * time.Millisecond, ForwardRetryMax: 20 * time.Millisecond})
	t.Cleanup(a.Close)

	pts := seedUsers(t, a, 64, 2, 3)
	for i := 0; i < 3; i++ {
		if _, err := a.Update(1, pts[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := a.CloakQuery(2, pts[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Register(100, privacy.Constant(privacy.Requirement{K: 1000})); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Update(100, geo.Pt(0.5, 0.5)); err != nil {
		t.Fatal(err)
	}
	a.Deregister(64)
	st, _ := pinStats(t, a, "single")
	if st.Registered != 64 || st.Reused == 0 || st.Queries != 3 || st.BestEffort == 0 || st.Forwarded == 0 {
		t.Fatalf("single phase moved the wrong counts: %+v", st)
	}

	// Users 1..32 report from two points: one descent per point.
	batch := make([]cloak.Request, 32)
	for i := range batch {
		batch[i] = cloak.Request{ID: uint64(i + 1), Loc: pts[i%2]}
	}
	a.BatchUpdate(batch)
	if st, _ = pinStats(t, a, "batch"); st.Batches != 1 || st.SharedHits == 0 {
		t.Fatalf("batch phase moved the wrong counts: %+v", st)
	}

	// Eight users move far while the link is down: the queue of four
	// spills them all and evicts the oldest four; user 8 moves again and
	// coalesces into its queued entry.
	fwd.setDown(true)
	for id := uint64(1); id <= 8; id++ {
		if _, err := a.Update(id, geo.Pt(0.05+0.1*float64(id), 0.95)); err != nil {
			t.Fatalf("update %d during the outage: %v", id, err)
		}
	}
	if _, err := a.Update(8, geo.Pt(0.9, 0.05)); err != nil {
		t.Fatal(err)
	}
	st, _ = pinStats(t, a, "outage")
	if st.Spilled != 9 || st.Dropped != 4 || st.QueueDepth != 4 || st.ForwardErrs == 0 {
		t.Fatalf("outage phase moved the wrong counts: %+v", st)
	}
	fwd.setDown(false)
	waitFor(t, 5*time.Second, func() bool { return a.Stats().QueueDepth == 0 }, "queue drain")
	st, series := pinStats(t, a, "replay")
	if st.Replayed != 4 || series["anon_forward_queue_depth"] != 0 {
		t.Fatalf("replay phase: %+v, exported depth %g", st, series["anon_forward_queue_depth"])
	}

	// Backpressure: a full queue sheds single and batched updates.
	bp := newBackpressureAnon(t, fwd.forward, 2)
	registerN(t, bp, 6, 2)
	fwd.setDown(true)
	fillQueue(t, bp, 2)
	if _, err := bp.Update(3, geo.Pt(0.8, 0.2)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("update into a full queue: err = %v, want ErrOverloaded", err)
	}
	bp.BatchUpdate([]cloak.Request{{ID: 4, Loc: geo.Pt(0.3, 0.3)}, {ID: 5, Loc: geo.Pt(0.6, 0.6)}})
	st, series = pinStats(t, bp, "shed")
	if series["anon_overload_sheds_total"] != 3 || st.Updates != 2 || st.Batches != 1 || st.QueueDepth != 2 {
		t.Fatalf("shed phase: %+v, sheds %g", st, series["anon_overload_sheds_total"])
	}
	fwd.setDown(false)
	waitFor(t, 5*time.Second, func() bool { return bp.Stats().QueueDepth == 0 }, "queue drain")
	if _, series = pinStats(t, bp, "shed drained"); series["anon_forward_queue_depth"] != 0 {
		t.Fatalf("drained queue exports depth %g", series["anon_forward_queue_depth"])
	}
}
