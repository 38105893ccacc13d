package anonymizer

import (
	"sync"
	"time"

	"repro/internal/geo"
)

// forwardQueue is the graceful-degradation path for the anonymizer →
// database link: when a forward fails, the cloaked region (never the exact
// location — privacy is not weakened by spilling) is parked in a bounded
// in-memory queue and replayed with exponential backoff once the link
// recovers.
//
// The queue holds at most one region per user: a newer update for a queued
// user coalesces into the existing entry, because only the latest region
// matters to the server (region updates are upserts). When the queue is
// full, the oldest entry is evicted so the freshest regions survive an
// extended outage. Per-user ordering is preserved by routing updates for a
// queued user through the queue even while the link is healthy.
type forwardQueue struct {
	fwd   Forwarder
	limit int
	base  time.Duration
	max   time.Duration
	met   *anonMetrics
	// reject switches the full-queue policy from "evict the oldest entry"
	// (silent loss, the historical behavior) to "refuse the new region"
	// (backpressure: the update fails typed and visibly instead).
	reject bool

	mu      sync.Mutex
	regions map[uint64]geo.Rect
	order   []uint64
	closed  bool

	wake chan struct{}
	quit chan struct{}
	done chan struct{}
}

func newForwardQueue(fwd Forwarder, limit int, base, max time.Duration, met *anonMetrics, reject bool) *forwardQueue {
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max < base {
		max = 5 * time.Second
		if max < base {
			max = base
		}
	}
	q := &forwardQueue{
		fwd:     fwd,
		limit:   limit,
		base:    base,
		max:     max,
		met:     met,
		reject:  reject,
		regions: make(map[uint64]geo.Rect, limit),
		wake:    make(chan struct{}, 1),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go q.run()
	return q
}

func (q *forwardQueue) kick() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// enqueueIfPending coalesces a new region into an already-queued entry for
// the same user, preserving per-user ordering: while an older region for
// id waits in the queue, newer ones must not overtake it on the direct
// path.
func (q *forwardQueue) enqueueIfPending(id uint64, region geo.Rect) bool {
	q.mu.Lock()
	if _, ok := q.regions[id]; !ok || q.closed {
		q.mu.Unlock()
		return false
	}
	q.regions[id] = region
	q.mu.Unlock()
	q.met.spills.Inc()
	q.kick()
	return true
}

// add parks a region after a failed forward. When the queue is full the
// policy decides: evict the oldest entry (default) or refuse the new
// region (reject mode). It reports whether the region was accepted.
func (q *forwardQueue) add(id uint64, region geo.Rect) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return true
	}
	if _, ok := q.regions[id]; ok {
		q.regions[id] = region
		q.mu.Unlock()
		q.met.spills.Inc()
		q.kick()
		return true
	}
	var droppedOne bool
	if q.limit > 0 && len(q.order) >= q.limit {
		if q.reject {
			q.mu.Unlock()
			return false
		}
		victim := q.order[0]
		q.order = q.order[1:]
		delete(q.regions, victim)
		droppedOne = true
	}
	q.order = append(q.order, id)
	q.regions[id] = region
	q.mu.Unlock()
	q.met.spills.Inc()
	if droppedOne {
		q.met.queueDrops.Inc()
	}
	q.kick()
	return true
}

// admit reports whether an update for id may enter the pipeline under
// reject mode: true while the queue has room, or while id already has a
// queued entry the new region would coalesce into. Always true in evict
// mode — admission pressure only exists when the full queue refuses work.
func (q *forwardQueue) admit(id uint64) bool {
	if !q.reject || q.limit <= 0 {
		return true
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, pending := q.regions[id]; pending {
		return true
	}
	return len(q.order) < q.limit
}

// full reports whether reject mode would refuse a non-coalescable region
// right now.
func (q *forwardQueue) full() bool {
	if !q.reject || q.limit <= 0 {
		return false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.order) >= q.limit
}

// head returns the oldest queued entry without removing it.
func (q *forwardQueue) head() (id uint64, region geo.Rect, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.order) == 0 {
		return 0, geo.Rect{}, false
	}
	id = q.order[0]
	return id, q.regions[id], true
}

// pop removes the head entry — unless a newer region coalesced in while it
// was being forwarded, in which case the entry stays for another round.
// It reports whether the entry was removed.
func (q *forwardQueue) pop(id uint64, forwarded geo.Rect) bool {
	q.mu.Lock()
	removed := len(q.order) > 0 && q.order[0] == id && q.regions[id] == forwarded
	if removed {
		q.order = q.order[1:]
		delete(q.regions, id)
	}
	q.mu.Unlock()
	return removed
}

// run is the replay loop: it drains the queue head-first, backing off
// exponentially while the downstream link keeps failing.
func (q *forwardQueue) run() {
	defer close(q.done)
	backoff := q.base
	for {
		id, region, ok := q.head()
		if !ok {
			select {
			case <-q.wake:
				continue
			case <-q.quit:
				return
			}
		}
		if err := q.fwd(id, region); err != nil {
			q.met.forwardErrs.Inc()
			select {
			case <-time.After(backoff):
			case <-q.quit:
				return
			}
			if backoff *= 2; backoff > q.max {
				backoff = q.max
			}
			continue
		}
		backoff = q.base
		if q.pop(id, region) {
			q.met.replays.Inc()
			q.met.forwarded.Inc()
		}
	}
}

// close stops the replay loop and waits for it to exit. Entries still
// queued are abandoned.
func (q *forwardQueue) close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		<-q.done
		return
	}
	q.closed = true
	q.mu.Unlock()
	close(q.quit)
	<-q.done
}
