package anonymizer

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/cloak"
	"repro/internal/par"
	"repro/internal/privacy"
	"repro/internal/trace"
)

// BatchUpdate processes many location updates in one shared pass (Section
// 5.3): users in the same bottom pyramid cell with the same active
// requirement share one cloak, since every algorithm cloaks from cell
// counts alone. Results are returned in input order; a nil entry marks an
// update that failed (unknown user, passive mode, out-of-world location,
// or — under forward backpressure — a full forward queue refusing the
// entry).
//
// The batch drains through a three-phase pipeline:
//
//  1. Admission + relocation, parallel per shard: every shard worker
//     validates its own users' entries (profile, mode, requirement) under
//     the shard lock, then applies their index relocations as one batched
//     critical section of the single index writer. One user maps to one
//     shard and each shard walks its entries in input order, so per-user
//     ordering is preserved; the final index state is independent of the
//     cross-shard write interleaving because each user's position depends
//     only on her own last entry and cell counters commute.
//  2. Cloaking, parallel on the worker pool over the now-frozen pyramid
//     (read lock): one cloak per distinct (bottom cell, requirement) key
//     across all shards (cloak.Batch).
//  3. With Config.Incremental, each user's last region is recorded in
//     her cache entry; then accounting, sequential in input order, then
//     forwarding, once per user whose region changed and concurrently.
//
// Phases 1 and 2 are deterministic functions of the input and prior state,
// so results are bit-identical for every (Shards, BatchWorkers) setting —
// the property the differential test suite pins down.
//
// Each user is forwarded once per batch, with the region of her last
// entry: region updates are upserts, so that is the state per-user updates
// would have left downstream. The forwards of a batch are issued together,
// each through the same per-entry path a single update takes; users are
// distinct, so their order on the wire does not matter.
//
// With Config.Incremental the batch still cloaks every entry afresh (one
// shared cloak per key), but it keeps the incremental cache what it is
// on the single path: the region the database holds. Each user's last
// region becomes her cache entry; when it equals the entry it replaced,
// the database already holds it, so that entry is marked Reused and not
// forwarded. A failed forward drops the entry, as in Update.
func (a *Anonymizer) BatchUpdate(updates []cloak.Request) []*cloak.Result {
	return a.BatchUpdateCtx(context.Background(), updates)
}

// BatchUpdateCtx is BatchUpdate under a context: traced batches record the
// three pipeline phases (per-shard admission, pooled cloaking, forwarding)
// as spans with batch-size and shared-descent attributes.
func (a *Anonymizer) BatchUpdateCtx(ctx context.Context, updates []cloak.Request) []*cloak.Result {
	results := make([]*cloak.Result, len(updates))
	if len(updates) == 0 {
		return results
	}
	now := a.cfg.Clock()

	// Phase 1 — admission + batched relocations, one worker per shard
	// holding a batch's worth of entries.
	asp, _ := trace.Start(ctx, a.tracer, "anon_batch_admit")
	reqs := make([]cloak.Request, len(updates)) // resolved requirement per admitted entry
	admitted := make([]bool, len(updates))
	var shed atomic.Int64 // entries refused under forward backpressure
	byShard := make([][]int, len(a.shards))
	for i, u := range updates {
		_, si := a.shardFor(u.ID)
		byShard[si] = append(byShard[si], i)
	}
	var wg sync.WaitGroup
	for si, idxs := range byShard {
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func(s *shard, si int, idxs []int) {
			defer wg.Done()
			s.mu.Lock()
			defer s.mu.Unlock()
			live := make([]int, 0, len(idxs))
			for _, i := range idxs {
				u := updates[i]
				if !u.Loc.Valid() || !a.cfg.World.Contains(u.Loc) {
					continue
				}
				if a.cfg.Forward != nil && !a.admitForward(u.ID) {
					shed.Add(1)
					continue
				}
				profile, ok := s.profiles[u.ID]
				if !ok || s.modes[u.ID] == privacy.Passive {
					continue
				}
				req, err := profile.At(now)
				if err != nil {
					continue
				}
				reqs[i] = cloak.Request{ID: u.ID, Loc: u.Loc, Req: req}
				live = append(live, i)
			}
			// This shard's relocations, applied as one write section: the
			// "single writer applying relocations in batches".
			a.idxMu.Lock()
			for _, i := range live {
				a.pyr.Upsert(reqs[i].ID, reqs[i].Loc)
				admitted[i] = true
			}
			a.idxMu.Unlock()
			a.met.shardOps[si].Add(uint64(len(live)))
		}(a.shards[si], si, idxs)
	}
	wg.Wait()

	valid := make([]int, 0, len(updates)) // admitted entries, input order
	for i := range updates {
		if admitted[i] {
			valid = append(valid, i)
		}
	}
	creqs := make([]cloak.Request, len(valid))
	for j, i := range valid {
		creqs[j] = reqs[i]
	}
	if n := shed.Load(); n > 0 {
		a.met.sheds.Add(uint64(n))
	}
	if asp.Recording() {
		asp.SetAttrs(trace.Int("entries", int64(len(updates))),
			trace.Int("admitted", int64(len(valid))),
			trace.Int("shed", shed.Load()))
		asp.End()
	}

	// Phase 2 — cloak the whole batch over the frozen pyramid.
	csp, _ := a.met.batch.Start(ctx, a.tracer)
	a.idxMu.RLock()
	batchResults, sharedHits := a.batch.CloakAll(creqs, a.workers) //lint:sanitized cloaking boundary: k-anonymous regions replace the exact points
	a.idxMu.RUnlock()
	if csp.Recording() {
		csp.SetAttrs(trace.Str("alg", a.cfg.Algorithm.String()),
			trace.Int("shared_hits", int64(sharedHits)))
	}
	csp.End()

	// Phase 3 — the cache learns each user's last region, then accounting
	// in input order.
	var last map[uint64]int // user → her last admitted entry
	if a.cfg.Incremental || a.cfg.Forward != nil {
		last = make(map[uint64]int, len(creqs))
		for j := range creqs {
			last[creqs[j].ID] = j
		}
	}
	if a.cfg.Incremental {
		a.recordBatch(creqs, batchResults, last)
	}
	for j := range batchResults {
		res := batchResults[j]
		results[valid[j]] = &res
		a.met.observeResult(res)
	}
	a.met.updates.Add(uint64(len(batchResults)))
	a.met.batches.Inc()
	a.met.sharedHits.Add(uint64(sharedHits))
	a.met.batchSize.Observe(float64(len(updates)))

	if a.cfg.Tariff != nil {
		for si, idxs := range byShard {
			if len(idxs) == 0 {
				continue
			}
			s := a.shards[si]
			s.mu.Lock()
			for _, i := range idxs {
				if admitted[i] {
					s.charges[reqs[i].ID] += a.cfg.Tariff(reqs[i].Req)
				}
			}
			s.mu.Unlock()
		}
	}

	if a.cfg.Forward != nil {
		a.forwardBatch(ctx, creqs, batchResults, valid, results, last)
	}
	return results
}

// recordBatch makes the region of each user's last entry (last maps a
// user to it) her incremental-cache entry, under her shard mutex as
// Update's cloak is, and marks that entry Reused when the cache already
// held the same region: the database holds it, so it is not forwarded.
func (a *Anonymizer) recordBatch(creqs []cloak.Request, cloaked []cloak.Result, last map[uint64]int) {
	for j, r := range creqs {
		if last[r.ID] != j {
			continue
		}
		s, _ := a.shardFor(r.ID)
		s.mu.Lock()
		cloaked[j].Reused = s.inc.Record(r.ID, cloaked[j].Region, r.Req)
		s.mu.Unlock()
	}
}

// forwardBatch is the batch pipeline's forwarding step: one forward per
// distinct user of creqs whose last entry (last maps a user to it) is not
// Reused, carrying that entry's region, all in flight together. Entry j of
// creqs and cloaked answers results[valid[j]]; the entries of a user whose
// forward is refused are set to nil there.
func (a *Anonymizer) forwardBatch(ctx context.Context, creqs []cloak.Request, cloaked []cloak.Result, valid []int, results []*cloak.Result, last map[uint64]int) {
	fsp, fctx := trace.Start(ctx, a.tracer, "anon_batch_forward")
	// With a spill queue configured the error path is absorbed inside
	// forward; without one a failed forward is already counted there
	// and, matching the historical batch semantics, does not null the
	// caller's result. Backpressure refusals are the exception: the
	// region reached neither the database nor the queue, so the user's
	// entries fail typed rather than pretending the update landed.
	par.For(len(creqs), forwardFanout, func(_, j int) {
		id := creqs[j].ID
		if last[id] != j || cloaked[j].Reused {
			return
		}
		err := a.forward(fctx, id, cloaked[j].Region)
		if err == nil {
			return
		}
		// The database never received this region, so it must not be
		// reused: the user's next update recloaks and forwards again.
		if s, _ := a.shardFor(id); s.inc != nil {
			s.inc.Invalidate(id)
		}
		if errors.Is(err, ErrOverloaded) {
			results[valid[j]] = nil // each last entry is one worker's
		}
	})
	sent, refused := 0, 0
	for j := range creqs {
		l := last[creqs[j].ID]
		switch {
		case results[valid[l]] == nil:
			results[valid[j]] = nil // every entry of a refused user
			if l == j {
				refused++
			}
		case l == j && !cloaked[j].Reused:
			sent++
		}
	}
	if fsp.Recording() {
		fsp.SetAttrs(trace.Int("forwarded", int64(sent)),
			trace.Int("shed", int64(refused)))
		fsp.End()
	}
}

// forwardFanout bounds the forwards one batch has in flight. The forward
// link pipelines concurrent calls over one connection, so width costs only
// goroutines — but a burst of runnable goroutines is what the queries
// sharing the machine wait behind. 16 is the measured knee on city_batch
// (DESIGN, "The inter-tier link"): update p50 within 8% of 64 wide, query
// p50s level with a serial forward phase where 64 wide cost them 11%.
// That knee was measured with all 64 users of a frame forwarded; with the
// incremental cache recording batches, about 7 of them are, so the bound
// rarely binds there. A constant, not a knob.
const forwardFanout = 16
