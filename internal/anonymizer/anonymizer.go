// Package anonymizer implements the Location Anonymizer of Section 5: the
// trusted third party standing between mobile users and the location-based
// database server. It registers users with their privacy profiles, receives
// exact location updates, cloaks them with a space-dependent algorithm from
// the cloak package, and forwards only the cloaked regions downstream.
//
// Storage discipline follows the paper's design goal that the anonymizer
// "does not need to store the exact location information": it keeps only
// pyramid cell counters (metadata, in the paper's words) and each user's
// bottom pyramid cell; an exact point lives only as long as its request.
// The data-dependent cloakers of Figure 3 need their neighbors' exact
// positions, so they are not offered here (experiments run them directly).
//
// # Concurrency model
//
// The anonymizer is sharded for multicore scaling (Section 5.3 demands the
// tier keep up with "tens of thousands of updates per second"):
//
//   - Per-user state — profiles, modes, charges, incremental region caches —
//     is partitioned into Config.Shards lock stripes keyed by user id.
//     Operations on users in different shards never contend.
//   - The count pyramid is a single reader/writer domain: relocations are
//     applied by one writer at a time (batched per shard in BatchUpdate),
//     while cloaking computations — pure reads — run concurrently under the
//     read lock.
//   - Activity counts are the anon_* registry series, off every lock;
//     Stats reads them.
//
// Lock order, where both are held: shard mutex → index lock. With
// Shards=1 the anonymizer degenerates to the historical fully-serialized
// behavior, which the differential tests use as the reference.
package anonymizer

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/cloak"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/privacy"
	"repro/internal/pyramid"
	"repro/internal/trace"
)

// Algorithm selects the cloaking algorithm.
type Algorithm uint8

const (
	// AlgQuadtree is the space-dependent top-down quadtree (Figure 4a).
	// It is the default.
	AlgQuadtree Algorithm = iota
	// AlgGrid is the space-dependent fixed grid with merging (Figure 4b).
	AlgGrid
	// AlgGridML is AlgGrid with multi-level refinement.
	AlgGridML
)

// algNames is the one name table of the algorithms, indexed by value:
// String prints it and ParseAlgorithm reads it.
var algNames = [...]string{AlgQuadtree: "quadtree", AlgGrid: "grid", AlgGridML: "grid-ml"}

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	if int(a) < len(algNames) {
		return algNames[a]
	}
	return fmt.Sprintf("algorithm(%d)", uint8(a))
}

// ParseAlgorithm returns the algorithm whose String is name.
func ParseAlgorithm(name string) (Algorithm, error) {
	for a, n := range algNames {
		if n == name {
			return Algorithm(a), nil
		}
	}
	return 0, fmt.Errorf("anonymizer: unknown algorithm %q (want one of %s)", name, strings.Join(algNames[:], ", "))
}

// Forwarder receives cloaked regions; the production implementation is the
// database server (directly in-process, or via the wire protocol).
type Forwarder func(id uint64, region geo.Rect) error

// Config configures an Anonymizer.
type Config struct {
	// World bounds all locations. Required.
	World geo.Rect
	// Algorithm selects the cloaking algorithm (default AlgQuadtree).
	Algorithm Algorithm
	// PyramidHeight sets the space partition depth (default 10 → 512×512
	// bottom cells).
	PyramidHeight int
	// GridLevel is the fixed level for AlgGrid/AlgGridML (default 6).
	GridLevel int
	// Incremental enables Section 5.3 incremental evaluation: regions are
	// reused across updates while they remain valid, and a reused region
	// is not forwarded again. The region cache is shard-local, so it never
	// crosses a shard (or user) boundary. On both the single and the batch
	// path a user's entry is the region the database holds for her: the
	// last one forwarded, dropped when its forward fails.
	Incremental bool
	// Shards sets the number of lock stripes for per-user state, in
	// [1, MaxShards]. 1 (the default) reproduces the historical
	// fully-serialized anonymizer; set it near GOMAXPROCS for multicore
	// throughput. Results are bit-identical across shard counts.
	Shards int
	// BatchWorkers bounds the worker pool that parallelizes the cloaking
	// phase of BatchUpdate (0 = GOMAXPROCS, 1 = sequential reference
	// pipeline). Results are bit-identical across worker counts.
	BatchWorkers int
	// Forward receives every cloaked region. Optional; when nil regions are
	// only returned to the caller. It must be safe for concurrent use, and
	// so must ForwardCtx: concurrent updates forward concurrently, and a
	// batch issues its users' forwards together.
	Forward Forwarder
	// ForwardCtx, when set, replaces Forward on the direct (non-replay)
	// path and receives the request's context, so a traced update's
	// downstream UpdatePrivate call joins the same trace. Spill-queue
	// replays always go through Forward with a background context — the
	// originating request is long gone by then. Setting only ForwardCtx is
	// allowed; a Forward adapter is synthesized for the replay loop.
	ForwardCtx func(ctx context.Context, id uint64, region geo.Rect) error
	// ForwardQueue bounds the spill queue that absorbs forward failures:
	// when the downstream link is down, cloaked regions (never exact
	// locations — spilling does not weaken privacy) are parked and replayed
	// with backoff once the link recovers, and the user's update succeeds
	// instead of failing. 0 disables spilling: a forward failure fails the
	// update, the pre-queue behavior.
	ForwardQueue int
	// ForwardRetryBase/ForwardRetryMax bound the replay loop's exponential
	// backoff (defaults 100ms and 5s).
	ForwardRetryBase time.Duration
	ForwardRetryMax  time.Duration
	// ForwardBackpressure changes what a full spill queue means. Default
	// (false): the oldest queued region is evicted to make room — the
	// newest state survives, but an acknowledged update is silently lost.
	// True: the new update is refused with ErrOverloaded instead, so
	// nothing acknowledged is ever dropped and the pressure is pushed
	// back to the caller as a typed, retryable rejection. Updates for
	// users already queued still coalesce and succeed either way.
	ForwardBackpressure bool
	// Clock supplies the time for profile resolution (default time.Now).
	Clock func() time.Time
	// Tariff, when set, charges users per update as a function of their
	// current requirement — the paper's note that the anonymizer "may charge
	// the mobile users based on their required protection level".
	Tariff func(req privacy.Requirement) float64
	// Metrics is the registry the anonymizer registers its anon_* series
	// in. Optional; a private registry is created when nil, so
	// instrumentation is always live and Registry() always works. Stats
	// reads these series, so a registry serves one anonymizer.
	Metrics *obs.Registry
	// Tracer records pipeline-stage spans (admission → cloak → forward) for
	// traced requests — the *Ctx entry points. Optional; nil disables span
	// recording and the tracer is nil-safe, so an un-traced anonymizer pays
	// only nil checks.
	Tracer *trace.Tracer
}

// Stats is a view of the anonymizer's anon_* series. Forwarded includes
// replayed regions; ForwardErrs counts every failed forward attempt,
// direct and replay alike.
type Stats struct {
	Registered  int
	Updates     uint64
	Queries     uint64
	Reused      uint64
	BestEffort  uint64
	Forwarded   uint64
	ForwardErrs uint64

	// Batch-pipeline counters: batches processed and requests served from
	// the cloak of another with the same bottom cell and requirement.
	Batches    uint64
	SharedHits uint64

	// Spill-queue counters (all zero when no forward queue is configured).
	Spilled    uint64 // regions parked in the replay queue
	Replayed   uint64 // spilled regions delivered after recovery
	Dropped    uint64 // oldest entries evicted from a full queue
	QueueDepth int    // regions currently awaiting replay
}

// Anonymizer is the trusted third party. All methods are safe for
// concurrent use.
type Anonymizer struct {
	cfg     Config
	workers int // resolved BatchWorkers

	shards []*shard

	// idxMu guards the count pyramid: concurrent cloaking readers, one
	// relocation writer. Acquired after a shard mutex, never before one —
	// the lockorder pass enforces the rank annotation below.
	idxMu   sync.RWMutex //lint:lock index@1
	pyr     *pyramid.Pyramid
	cloaker cloak.Cloaker
	batch   cloak.Batch // shares cloaker's results within a batch

	fq *forwardQueue // nil unless Forward + ForwardQueue configured

	met    *anonMetrics
	tracer *trace.Tracer
}

// Common errors.
var (
	ErrUnknownUser   = errors.New("anonymizer: unknown user")
	ErrPassive       = errors.New("anonymizer: user is passive at this time")
	ErrDuplicateUser = errors.New("anonymizer: user already registered")
	// ErrOverloaded rejects an update under forward backpressure: the
	// downstream link is behind, the spill queue is full, and accepting
	// the update would force a silent eviction. The caller should back
	// off and retry; queries are unaffected (they never forward).
	ErrOverloaded = errors.New("anonymizer: forward queue full")
)

// New builds an anonymizer.
func New(cfg Config) (*Anonymizer, error) {
	if !cfg.World.Valid() || cfg.World.Area() <= 0 {
		return nil, fmt.Errorf("anonymizer: invalid world %v", cfg.World)
	}
	if cfg.PyramidHeight <= 0 {
		cfg.PyramidHeight = 10
	}
	if cfg.GridLevel <= 0 {
		cfg.GridLevel = 6
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Shards > MaxShards {
		return nil, fmt.Errorf("anonymizer: %d shards exceeds the maximum %d", cfg.Shards, MaxShards)
	}
	if cfg.BatchWorkers <= 0 {
		cfg.BatchWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.Forward == nil && cfg.ForwardCtx != nil {
		fc := cfg.ForwardCtx
		cfg.Forward = func(id uint64, region geo.Rect) error {
			return fc(context.Background(), id, region)
		}
	}
	pyr, err := pyramid.New(cfg.World, cfg.PyramidHeight)
	if err != nil {
		return nil, err
	}
	a := &Anonymizer{
		cfg:     cfg,
		workers: cfg.BatchWorkers,
		pyr:     pyr,
		met:     newAnonMetrics(cfg.Metrics, cfg.Algorithm, cfg.Shards),
		tracer:  cfg.Tracer,
	}
	switch cfg.Algorithm {
	case AlgQuadtree:
		a.cloaker = &cloak.Quadtree{Pyr: pyr}
	case AlgGrid, AlgGridML:
		a.cloaker = &cloak.Grid{Pyr: pyr, Level: cfg.GridLevel, MultiLevel: cfg.Algorithm == AlgGridML}
	default:
		return nil, fmt.Errorf("anonymizer: unknown algorithm %v", cfg.Algorithm)
	}
	a.batch = cloak.Batch{Pyr: pyr, Inner: a.cloaker}
	a.shards = make([]*shard, cfg.Shards)
	for i := range a.shards {
		var inc *cloak.Incremental
		if cfg.Incremental {
			inc = cloak.NewIncremental(a.cloaker, a.validateRegion)
			// Re-tighten a cached region once it holds 8× the required k:
			// keeps startup-era oversized regions from pinning quality of
			// service low forever, while still reusing aggressively in the
			// steady state.
			inc.MaxSlack = 8
		}
		a.shards[i] = newShard(inc)
	}
	a.met.shards.Set(float64(cfg.Shards))
	a.met.batchWorkers.Set(float64(a.workers))
	if cfg.Forward != nil && cfg.ForwardQueue > 0 {
		a.fq = newForwardQueue(cfg.Forward, cfg.ForwardQueue,
			cfg.ForwardRetryBase, cfg.ForwardRetryMax, a.met, cfg.ForwardBackpressure)
	}
	a.met.reg.AddExportHook(a.refreshGauges)
	return a, nil
}

// Close stops the forward replay loop, abandoning anything still queued.
// It is a no-op without a forward queue and safe to call more than once.
func (a *Anonymizer) Close() {
	if a.fq != nil {
		a.fq.close()
	}
}

// forward delivers one cloaked region downstream. With a spill queue
// configured a failure parks the region for replay and the update still
// succeeds; per-user ordering is preserved by coalescing into an already
// queued entry instead of letting a newer region overtake it on the
// direct path. Without a queue the error is returned, failing the update.
// The context rides along to ForwardCtx so the downstream call can join
// the request's trace; spill replays never see it (forwardQueue uses the
// plain Forward adapter).
func (a *Anonymizer) forward(ctx context.Context, id uint64, region geo.Rect) error {
	if a.fq != nil && a.fq.enqueueIfPending(id, region) {
		return nil
	}
	var err error
	if a.cfg.ForwardCtx != nil {
		err = a.cfg.ForwardCtx(ctx, id, region)
	} else {
		err = a.cfg.Forward(id, region)
	}
	if err == nil {
		a.met.forwarded.Inc()
		return nil
	}
	a.met.forwardErrs.Inc()
	if a.fq != nil {
		if a.fq.add(id, region) {
			return nil
		}
		// Backpressure: the queue is full and refusing work. The update
		// fails typed instead of evicting someone else's acknowledged
		// region.
		a.met.sheds.Inc()
		return ErrOverloaded
	}
	return err
}

// admitForward reports whether an update for id may enter the pipeline
// under forward backpressure. Always true without backpressure; under it,
// false once the spill queue is full — unless id already has a queued
// region the new one would coalesce into. Checking before cloaking keeps
// a shed update from paying for a cloak it cannot deliver.
func (a *Anonymizer) admitForward(id uint64) bool {
	return a.fq == nil || a.fq.admit(id)
}

// Saturated reports whether forward backpressure is on and the spill
// queue is full right now — the coarse signal wire handlers use to shed
// whole batches before paying for decode and cloaking. Always false
// without ForwardBackpressure.
func (a *Anonymizer) Saturated() bool {
	return a.fq != nil && a.fq.full()
}

// validateRegion re-checks a cached region against the live population
// with the pyramid's conservative CountWithin. Regions are unions of
// pyramid cells, so the walk never descends below the region's own level
// (O(height) for a quadtree cell). It reads the pyramid without locking,
// so callers must hold the index lock (the incremental cloakers invoke it
// from inside the cloak phase, which runs under the read lock).
func (a *Anonymizer) validateRegion(region geo.Rect, req privacy.Requirement) (int, bool) {
	count := a.pyr.CountWithin(region)
	return count, count >= req.K
}

// Algorithm returns the configured algorithm.
func (a *Anonymizer) Algorithm() Algorithm { return a.cfg.Algorithm }

// Shards returns the configured shard count.
func (a *Anonymizer) Shards() int { return len(a.shards) }

// BatchWorkers returns the resolved batch worker-pool size.
func (a *Anonymizer) BatchWorkers() int { return a.workers }

// Register adds a user with her initial privacy profile in active mode.
// Her location becomes known to the anonymizer on her first Update.
func (a *Anonymizer) Register(id uint64, profile *privacy.Profile) error {
	if profile == nil {
		return fmt.Errorf("anonymizer: nil profile for user %d", id)
	}
	s, _ := a.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.profiles[id]; dup {
		return ErrDuplicateUser
	}
	s.profiles[id] = profile
	s.modes[id] = privacy.Active
	a.met.registered.Inc()
	return nil
}

// UpdateProfile replaces a user's profile ("mobile users have the ability
// to change their privacy profiles at any time").
func (a *Anonymizer) UpdateProfile(id uint64, profile *privacy.Profile) error {
	if profile == nil {
		return fmt.Errorf("anonymizer: nil profile for user %d", id)
	}
	s, _ := a.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.profiles[id]; !ok {
		return ErrUnknownUser
	}
	s.profiles[id] = profile
	if s.inc != nil {
		s.inc.Invalidate(id)
	}
	return nil
}

// SetMode switches a user between passive, active and query modes. A
// passive user's cell is dropped from the pyramid.
func (a *Anonymizer) SetMode(id uint64, m privacy.Mode) error {
	s, _ := a.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.profiles[id]; !ok {
		return ErrUnknownUser
	}
	prev := s.modes[id]
	s.modes[id] = m
	if m == privacy.Passive && prev != privacy.Passive {
		a.dropLocation(s, id)
	}
	return nil
}

// Mode returns the user's current mode.
func (a *Anonymizer) Mode(id uint64) (privacy.Mode, error) {
	s, _ := a.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.modes[id]
	if !ok {
		return 0, ErrUnknownUser
	}
	return m, nil
}

// Deregister removes a user entirely.
func (a *Anonymizer) Deregister(id uint64) bool {
	s, _ := a.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.profiles[id]; !ok {
		return false
	}
	a.dropLocation(s, id)
	delete(s.profiles, id)
	delete(s.modes, id)
	a.met.registered.Dec()
	return true
}

// dropLocation removes a user from the pyramid and her shard's
// incremental cache. The shard mutex is held by the caller.
func (a *Anonymizer) dropLocation(s *shard, id uint64) {
	a.idxMu.Lock()
	a.pyr.Remove(id)
	a.idxMu.Unlock()
	if s.inc != nil {
		s.inc.Invalidate(id)
	}
}

// Update processes an exact location update from an active user: the
// location moves her to its pyramid cell, is cloaked under the requirement
// active right now, and the region is forwarded downstream.
func (a *Anonymizer) Update(id uint64, loc geo.Point) (cloak.Result, error) {
	return a.process(context.Background(), id, loc, false)
}

// UpdateCtx is Update under a context: traced requests record the
// admission → cloak → forward stages as spans.
func (a *Anonymizer) UpdateCtx(ctx context.Context, id uint64, loc geo.Point) (cloak.Result, error) {
	return a.process(ctx, id, loc, false)
}

// CloakQuery cloaks a location for a query the user is about to issue
// (query mode): identical pipeline, counted separately in the stats.
func (a *Anonymizer) CloakQuery(id uint64, loc geo.Point) (cloak.Result, error) {
	return a.process(context.Background(), id, loc, true)
}

// CloakQueryCtx is CloakQuery under a context (trace).
func (a *Anonymizer) CloakQueryCtx(ctx context.Context, id uint64, loc geo.Point) (cloak.Result, error) {
	return a.process(ctx, id, loc, true)
}

func (a *Anonymizer) process(ctx context.Context, id uint64, loc geo.Point, isQuery bool) (cloak.Result, error) {
	asp, _ := trace.Start(ctx, a.tracer, "anon_admit")
	if !loc.Valid() || !a.cfg.World.Contains(loc) {
		asp.End()
		return cloak.Result{}, fmt.Errorf("anonymizer: location %v outside world", loc)
	}
	s, si := a.shardFor(id)
	s.mu.Lock()
	profile, ok := s.profiles[id]
	if !ok {
		s.mu.Unlock()
		asp.End()
		return cloak.Result{}, ErrUnknownUser
	}
	if s.modes[id] == privacy.Passive {
		s.mu.Unlock()
		asp.End()
		return cloak.Result{}, ErrPassive
	}
	req, err := profile.At(a.cfg.Clock())
	if err != nil {
		// No entry covers the current time: the user is effectively passive.
		s.mu.Unlock()
		asp.End()
		return cloak.Result{}, fmt.Errorf("%w: %v", ErrPassive, err)
	}
	if asp.Recording() {
		asp.SetAttrs(trace.Int("k", int64(req.K)))
		asp.End()
	}
	if !isQuery && a.cfg.Forward != nil && !a.admitForward(id) {
		// Forward backpressure: the downstream link is behind and the spill
		// queue is full. Shed before touching the pyramid — the update will
		// not be deliverable, so cloaking it would only burn CPU the
		// overloaded tier needs.
		s.mu.Unlock()
		a.met.sheds.Inc()
		ssp, _ := trace.Start(ctx, a.tracer, "anon_shed")
		ssp.End()
		return cloak.Result{}, ErrOverloaded
	}

	// Refresh the pyramid before cloaking so the user counts toward her own
	// k — a short exclusive write section, then cloak under the read lock
	// so other shards' descents proceed concurrently.
	a.idxMu.Lock()
	a.pyr.Upsert(id, loc)
	a.idxMu.Unlock()

	csp, _ := a.met.cloak.Start(ctx, a.tracer)
	a.idxMu.RLock()
	var res cloak.Result
	if s.inc != nil {
		res = s.inc.Cloak(id, loc, req) //lint:sanitized cloaking boundary: the k-anonymous region replaces the exact point
	} else {
		res = a.cloaker.Cloak(id, loc, req) //lint:sanitized cloaking boundary: the k-anonymous region replaces the exact point
	}
	a.idxMu.RUnlock()
	if csp.Recording() {
		reused := int64(0)
		if res.Reused {
			reused = 1
		}
		csp.SetAttrs(
			trace.Str("alg", a.cfg.Algorithm.String()),
			trace.Int("achieved_k", int64(res.K)),
			trace.Int("reused", reused))
	}
	csp.End()
	a.met.observeResult(res)
	a.met.shardOps[si].Inc()

	if isQuery {
		a.met.queries.Inc()
	} else {
		a.met.updates.Inc()
	}
	if a.cfg.Tariff != nil {
		s.charges[id] += a.cfg.Tariff(req)
	}
	s.mu.Unlock()

	// A reused region is byte-identical to what the server already stores,
	// so incremental mode also saves the downstream message — half of the
	// Section 5.3 win.
	if a.cfg.Forward != nil && !res.Reused {
		fsp, fctx := trace.Start(ctx, a.tracer, "anon_forward")
		err := a.forward(fctx, id, res.Region)
		fsp.End()
		if err != nil {
			// The database never received this region, so it must not be
			// reused: the next update recloaks and forwards again.
			if s.inc != nil {
				s.inc.Invalidate(id)
			}
			return res, fmt.Errorf("anonymizer: forward failed: %w", err)
		}
	}
	return res, nil
}

// Charges returns the accumulated fees of a user under the configured
// tariff.
func (a *Anonymizer) Charges(id uint64) float64 {
	s, _ := a.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.charges[id]
}

// Stats reads the activity series, spill queue included. The read is not
// atomic across fields.
func (a *Anonymizer) Stats() Stats {
	a.refreshGauges()
	m := a.met
	return Stats{
		Registered:  int(m.registered.Value()),
		Updates:     m.updates.Value(),
		Queries:     m.queries.Value(),
		Reused:      m.reuseHits.Value(),
		BestEffort:  m.relaxations.Value(),
		Forwarded:   m.forwarded.Value(),
		ForwardErrs: m.forwardErrs.Value(),
		Batches:     m.batches.Value(),
		SharedHits:  m.sharedHits.Value(),
		Spilled:     m.spills.Value(),
		Replayed:    m.replays.Value(),
		Dropped:     m.queueDrops.Value(),
		QueueDepth:  int(m.queueDepth.Value()),
	}
}

// Population returns the number of users currently counted in the pyramid
// (those that sent at least one update while non-passive).
func (a *Anonymizer) Population() int {
	a.idxMu.RLock()
	defer a.idxMu.RUnlock()
	return a.pyr.Len()
}
