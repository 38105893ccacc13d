package anonymizer

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cloak"
	"repro/internal/geo"
)

func newBackpressureAnon(t *testing.T, fwd Forwarder, queue int) *Anonymizer {
	t.Helper()
	a, err := New(Config{
		World:               geo.R(0, 0, 1, 1),
		Forward:             fwd,
		ForwardQueue:        queue,
		ForwardBackpressure: true,
		ForwardRetryBase:    5 * time.Millisecond,
		ForwardRetryMax:     20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	return a
}

// fillQueue drives the queue to its bound with one region per distinct
// user, with the link down.
func fillQueue(t *testing.T, a *Anonymizer, n int) {
	t.Helper()
	for id := uint64(1); id <= uint64(n); id++ {
		if _, err := a.Update(id, geo.Pt(float64(id)/16, 0.5)); err != nil {
			t.Fatalf("update %d while filling queue: %v", id, err)
		}
	}
}

// Under backpressure a full queue refuses new users' regions with a typed
// error instead of silently evicting the oldest entry.
func TestBackpressureRejectsInsteadOfEvicting(t *testing.T) {
	fwd := newFlakyForwarder()
	a := newBackpressureAnon(t, fwd.forward, 4)
	registerN(t, a, 8, 2)

	fwd.setDown(true)
	fillQueue(t, a, 4)

	_, err := a.Update(5, geo.Pt(0.9, 0.9))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("update into a full queue: err = %v, want ErrOverloaded", err)
	}
	st := a.Stats()
	if st.Dropped != 0 {
		t.Fatalf("Dropped = %d, want 0 — backpressure must not evict", st.Dropped)
	}
	if st.QueueDepth != 4 {
		t.Fatalf("QueueDepth = %d, want 4", st.QueueDepth)
	}
	if got := a.met.sheds.Value(); got == 0 {
		t.Fatal("anon_overload_sheds_total = 0, want > 0")
	}
	if !a.Saturated() {
		t.Fatal("Saturated() = false with a full queue in reject mode")
	}
}

// A user who already holds a queued entry coalesces even when the queue is
// full: backpressure only refuses work that would need a new slot.
func TestBackpressureCoalesceStillSucceeds(t *testing.T) {
	fwd := newFlakyForwarder()
	a := newBackpressureAnon(t, fwd.forward, 3)
	registerN(t, a, 6, 2)

	fwd.setDown(true)
	fillQueue(t, a, 3)

	if _, err := a.Update(2, geo.Pt(0.7, 0.7)); err != nil {
		t.Fatalf("coalescing update for a queued user failed: %v", err)
	}
	st := a.Stats()
	if st.QueueDepth != 3 {
		t.Fatalf("QueueDepth = %d, want 3 (coalesced, not grown)", st.QueueDepth)
	}
	if st.Dropped != 0 {
		t.Fatalf("Dropped = %d, want 0", st.Dropped)
	}
}

// Once the link recovers and the queue drains, previously refused users are
// admitted again — backpressure is a transient, not a ban.
func TestBackpressureRecoversAfterDrain(t *testing.T) {
	fwd := newFlakyForwarder()
	a := newBackpressureAnon(t, fwd.forward, 2)
	registerN(t, a, 6, 2)

	fwd.setDown(true)
	fillQueue(t, a, 2)
	if _, err := a.Update(3, geo.Pt(0.8, 0.2)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded while saturated", err)
	}

	fwd.setDown(false)
	waitFor(t, 5*time.Second, func() bool { return a.Stats().QueueDepth == 0 }, "queue drain")
	if _, err := a.Update(3, geo.Pt(0.8, 0.2)); err != nil {
		t.Fatalf("update after drain failed: %v", err)
	}
	if a.Saturated() {
		t.Fatal("Saturated() = true after the queue drained")
	}
}

// BatchUpdate under backpressure sheds exactly the entries the full queue
// cannot hold: their results come back nil, admitted users still land, and
// nothing is evicted.
func TestBatchUpdateShedsUnderBackpressure(t *testing.T) {
	fwd := newFlakyForwarder()
	a := newBackpressureAnon(t, fwd.forward, 2)
	registerN(t, a, 8, 2)

	fwd.setDown(true)
	fillQueue(t, a, 2) // users 1 and 2 occupy the queue

	batch := []cloak.Request{
		{ID: 1, Loc: geo.Pt(0.15, 0.5)}, // queued → coalesces, succeeds
		{ID: 5, Loc: geo.Pt(0.55, 0.5)}, // new user, no slot → shed
		{ID: 6, Loc: geo.Pt(0.65, 0.5)}, // new user, no slot → shed
	}
	results := a.BatchUpdate(batch)
	if results[0] == nil {
		t.Fatal("coalescing batch entry for a queued user was shed")
	}
	if results[1] != nil || results[2] != nil {
		t.Fatalf("non-admissible entries returned results %v, %v — want nil, nil",
			results[1], results[2])
	}
	st := a.Stats()
	if st.Dropped != 0 {
		t.Fatalf("Dropped = %d, want 0 — batch sheds must not evict", st.Dropped)
	}
	if st.QueueDepth != 2 {
		t.Fatalf("QueueDepth = %d, want 2", st.QueueDepth)
	}
	if got := a.met.sheds.Value(); got < 2 {
		t.Fatalf("anon_overload_sheds_total = %d, want >= 2", got)
	}
}

// The queue can also fill after admission, between a batch's own forwards:
// the forwards that find it full are refused, and exactly their users'
// entries — every entry of such a user, no one else's — come back nil.
func TestBatchUpdateNullsForwardRefusals(t *testing.T) {
	fwd := newFlakyForwarder()
	a := newBackpressureAnon(t, fwd.forward, 2)
	registerN(t, a, 8, 2)

	fwd.setDown(true) // the queue is empty: admission lets the whole batch in
	batch := []cloak.Request{
		{ID: 1, Loc: geo.Pt(0.15, 0.5)},
		{ID: 2, Loc: geo.Pt(0.25, 0.5)},
		{ID: 3, Loc: geo.Pt(0.35, 0.5)},
		{ID: 1, Loc: geo.Pt(0.85, 0.5)}, // user 1 again, elsewhere
		{ID: 4, Loc: geo.Pt(0.45, 0.5)},
	}
	results := a.BatchUpdate(batch)

	a.fq.mu.Lock()
	queued := make(map[uint64]bool, len(a.fq.regions))
	for id := range a.fq.regions {
		queued[id] = true
	}
	a.fq.mu.Unlock()
	if len(queued) != 2 {
		t.Fatalf("queue holds %d users, want its bound of 2", len(queued))
	}
	for i, u := range batch {
		if got := results[i] != nil; got != queued[u.ID] {
			t.Errorf("entry %d (user %d): result present = %v, region queued = %v", i, u.ID, got, queued[u.ID])
		}
	}
	if st := a.Stats(); st.Dropped != 0 {
		t.Fatalf("Dropped = %d, want 0 — refusals must not evict", st.Dropped)
	}
}

// Without the flag the historical evict-oldest policy is untouched:
// updates never fail, the oldest entry pays.
func TestEvictModeUnchangedWithoutFlag(t *testing.T) {
	fwd := newFlakyForwarder()
	a := newQueueAnon(t, fwd.forward, 2)
	registerN(t, a, 5, 2)

	fwd.setDown(true)
	for id := uint64(1); id <= 5; id++ {
		if _, err := a.Update(id, geo.Pt(float64(id)/6, 0.5)); err != nil {
			t.Fatalf("update %d failed in evict mode: %v", id, err)
		}
	}
	if a.Saturated() {
		t.Fatal("Saturated() = true in evict mode — backpressure off must never report saturation")
	}
	if st := a.Stats(); st.Dropped != 3 {
		t.Fatalf("Dropped = %d, want 3", st.Dropped)
	}
}
