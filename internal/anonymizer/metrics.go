package anonymizer

import (
	"strconv"

	"repro/internal/cloak"
	"repro/internal/obs"
	"repro/internal/trace"
)

// anonMetrics holds the anonymizer's registered obs series — the one
// store of its activity counts, which Stats reads. The cloaking algorithm
// is fixed per Anonymizer, so the per-algorithm label is bound once at
// construction and the hot path pays only atomic operations; the same goes
// for the per-shard counters, bound once per stripe.
type anonMetrics struct {
	reg *obs.Registry

	cloak     trace.Stage    // anon_cloak span → anon_cloak_seconds{alg}
	batch     trace.Stage    // anon_batch_cloak span → anon_batch_seconds{alg}
	batchSize *obs.Histogram // anon_batch_size{alg}
	area      *obs.Histogram // anon_cloak_area{alg}
	k         *obs.Histogram // anon_cloak_k{alg}

	updates     *obs.Counter
	queries     *obs.Counter
	relaxations *obs.Counter // best-effort results (some constraint missed)
	kMissed     *obs.Counter // k-anonymity itself missed — the hard failure
	reuseHits   *obs.Counter
	forwarded   *obs.Counter
	forwardErrs *obs.Counter
	batches     *obs.Counter // batch pipeline passes completed
	sharedHits  *obs.Counter // requests served from a shared descent

	// Per-shard operation counters: anon_shard_ops_total{shard}. Uneven
	// values reveal a skewed id→shard distribution.
	shardOps []*obs.Counter

	// Forward spill-queue series: the graceful-degradation path used when
	// the downstream database link fails.
	spills     *obs.Counter // regions parked in the replay queue
	replays    *obs.Counter // queued regions delivered after recovery
	queueDrops *obs.Counter // oldest entries evicted from a full queue
	sheds      *obs.Counter // updates refused under forward backpressure

	registered   *obs.Gauge
	shards       *obs.Gauge // configured lock-stripe count
	batchWorkers *obs.Gauge // resolved batch worker-pool size

	// Set at export from the state they report (Anonymizer.refreshGauges).
	tracked    *obs.Gauge
	reuseRate  *obs.Gauge // reused / (updates+queries), 0..1
	queueDepth *obs.Gauge // regions currently awaiting replay
}

// newAnonMetrics registers the anonymizer's series in reg (a fresh private
// registry when nil), labelling the per-cloak distributions with alg and
// the per-shard counters with their stripe index.
func newAnonMetrics(reg *obs.Registry, alg Algorithm, shards int) *anonMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	l := obs.L("alg", alg.String())
	m := &anonMetrics{
		reg: reg,

		cloak: trace.NewStage("anon_cloak", reg.Histogram("anon_cloak_seconds",
			"Latency of one cloaking computation.", obs.DefaultLatencyBuckets, l)),
		batch: trace.NewStage("anon_batch_cloak", reg.Histogram("anon_batch_seconds",
			"Latency of one shared (batch) cloaking pass.", obs.DefaultLatencyBuckets, l)),
		batchSize: reg.Histogram("anon_batch_size",
			"Requests per batch-update pass.", obs.CountBuckets, l),
		area: reg.Histogram("anon_cloak_area",
			"Cloaked-region area (world units squared).", obs.AreaBuckets, l),
		k: reg.Histogram("anon_cloak_k",
			"Anonymity actually achieved (users in the cloaked region).", obs.CountBuckets, l),

		updates:     reg.Counter("anon_updates_total", "Location updates processed."),
		queries:     reg.Counter("anon_queries_total", "Query cloaks processed."),
		relaxations: reg.Counter("anon_cloak_relaxations_total", "Cloaks that missed at least one profile constraint (best effort)."),
		kMissed:     reg.Counter("anon_cloak_k_missed_total", "Cloaks that missed the k-anonymity requirement itself."),
		reuseHits:   reg.Counter("anon_reuse_hits_total", "Updates served from a still-valid incremental region."),
		forwarded:   reg.Counter("anon_forwarded_total", "Cloaked regions forwarded downstream."),
		forwardErrs: reg.Counter("anon_forward_errors_total", "Downstream forward failures."),
		batches:     reg.Counter("anon_batches_total", "Batch-update pipeline passes completed."),
		sharedHits:  reg.Counter("anon_batch_shared_hits_total", "Batched requests served from a shared descent instead of their own computation."),

		spills:     reg.Counter("anon_forward_spills_total", "Cloaked regions spilled into the replay queue while the database link was down."),
		replays:    reg.Counter("anon_forward_replays_total", "Spilled regions replayed downstream after the link recovered."),
		queueDrops: reg.Counter("anon_forward_queue_drops_total", "Oldest spilled regions evicted because the replay queue was full."),
		sheds:      reg.Counter("anon_overload_sheds_total", "Updates refused with ErrOverloaded under forward backpressure."),

		registered:   reg.Gauge("anon_registered_users", "Users registered with a privacy profile."),
		tracked:      reg.Gauge("anon_tracked_users", "Users currently present in the spatial indices."),
		reuseRate:    reg.Gauge("anon_reuse_rate", "Incremental-reuse hit rate over all processed operations (0..1)."),
		queueDepth:   reg.Gauge("anon_forward_queue_depth", "Cloaked regions currently parked awaiting replay."),
		shards:       reg.Gauge("anon_shards", "Configured per-user state lock stripes."),
		batchWorkers: reg.Gauge("anon_batch_workers", "Worker-pool size of the batch cloaking phase."),
	}
	m.shardOps = make([]*obs.Counter, shards)
	for i := range m.shardOps {
		m.shardOps[i] = reg.Counter("anon_shard_ops_total",
			"Operations processed per state shard.", obs.L("shard", strconv.Itoa(i)))
	}
	return m
}

// observeResult records the per-cloak distributions for one result.
func (m *anonMetrics) observeResult(res cloak.Result) {
	m.area.Observe(res.Region.Area())
	m.k.Observe(float64(res.K))
	if res.BestEffort() {
		m.relaxations.Inc()
	}
	if !res.SatisfiedK {
		m.kMissed.Inc()
	}
	if res.Reused {
		m.reuseHits.Inc()
	}
}

// refreshGauges sets the gauges that report state from that state, each
// under the lock that guards it, so two refreshes cannot land out of
// order. It runs on every export of the registry and in Stats.
func (a *Anonymizer) refreshGauges() {
	a.idxMu.RLock()
	a.met.tracked.Set(float64(a.pyr.Len()))
	a.idxMu.RUnlock()
	if a.fq != nil {
		a.fq.mu.Lock()
		a.met.queueDepth.Set(float64(len(a.fq.order)))
		a.fq.mu.Unlock()
	}
	if total := a.met.updates.Value() + a.met.queries.Value(); total > 0 {
		a.met.reuseRate.Set(float64(a.met.reuseHits.Value()) / float64(total))
	}
}

// Registry returns the registry the anonymizer's series live in — the
// handle a daemon mounts on its /metrics endpoint and exposes over the
// wire.
func (a *Anonymizer) Registry() *obs.Registry { return a.met.reg }
