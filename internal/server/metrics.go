package server

import (
	"repro/internal/obs"
	"repro/internal/trace"
)

// Metrics are the server's monotonically increasing operation counters,
// readable without taking the server mutex. They are the observability
// surface a deployment scrapes (the database service exposes them through
// its stats message). The struct is a stable snapshot API; the live
// counters behind it are obs registry series, so the same numbers appear
// on /metrics as lbs_*_total.
type Metrics struct {
	PrivateUpdates  uint64
	PrivateRemovals uint64
	MovingUpdates   uint64
	PrivateRangeQs  uint64
	PrivateNNQs     uint64
	PublicCountQs   uint64
	PublicNNQs      uint64
	ContinuousReads uint64
	SnapshotsTaken  uint64
	RestoresApplied uint64

	// Batch queries (batch.go).
	Batches         uint64 // BatchQuery calls served
	BatchEntries    uint64 // entries across all batches
	BatchSharedHits uint64 // batch entries answered from the answer memo
}

// metrics holds the server's registered obs series. Handles are registered
// once at construction and used lock-free on the hot paths.
type metrics struct {
	reg *obs.Registry

	privateUpdates  *obs.Counter
	privateRemovals *obs.Counter
	movingUpdates   *obs.Counter
	privateRangeQs  *obs.Counter
	privateNNQs     *obs.Counter
	publicCountQs   *obs.Counter
	publicNNQs      *obs.Counter
	continuousReads *obs.Counter
	snapshotsTaken  *obs.Counter
	restoresApplied *obs.Counter
	batches         *obs.Counter
	batchEntries    *obs.Counter
	batchSharedHits *obs.Counter
	memoHits        *obs.Counter
	memoMisses      *obs.Counter

	// Gauges: current data-set sizes.
	privateUsers *obs.Gauge
	stationary   *obs.Gauge
	moving       *obs.Gauge
	contQueries  *obs.Gauge

	// Per-query-class latency (lbs_query_seconds{class}): each single
	// query's span feeds its class histogram.
	privateRange trace.Stage
	privateNN    trace.Stage
	publicCount  trace.Stage
	publicNN     trace.Stage

	// Query-shape distributions.
	candidates   *obs.Histogram // private-NN candidate set size
	falsePosFrac *obs.Histogram // fraction of NN candidates refinement discards
	countUsers   *obs.Histogram // users with positive overlap per count answer
	nodeVisits   *obs.Histogram // index nodes visited per query
	batchSize    *obs.Histogram // entries per BatchQuery call
	batch        trace.Stage    // lbs_batch span → lbs_batch_seconds
}

// newMetrics registers the server's series in reg (a fresh private registry
// when nil).
func newMetrics(reg *obs.Registry) *metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	lat := func(class string) *obs.Histogram {
		return reg.Histogram("lbs_query_seconds",
			"Database query latency by query class.",
			obs.DefaultLatencyBuckets, obs.L("class", class))
	}
	return &metrics{
		reg: reg,

		privateUpdates:  reg.Counter("lbs_private_updates_total", "Cloaked-region updates stored."),
		privateRemovals: reg.Counter("lbs_private_removals_total", "Private user deregistrations."),
		movingUpdates:   reg.Counter("lbs_moving_updates_total", "Moving public-object updates."),
		privateRangeQs:  reg.Counter("lbs_private_range_queries_total", "Private range queries served."),
		privateNNQs:     reg.Counter("lbs_private_nn_queries_total", "Private nearest-neighbor queries served."),
		publicCountQs:   reg.Counter("lbs_public_count_queries_total", "Public probabilistic count queries served."),
		publicNNQs:      reg.Counter("lbs_public_nn_queries_total", "Public nearest-neighbor queries served."),
		continuousReads: reg.Counter("lbs_continuous_reads_total", "Continuous-query answer reads."),
		snapshotsTaken:  reg.Counter("lbs_snapshots_total", "State snapshots written."),
		restoresApplied: reg.Counter("lbs_restores_total", "State snapshots restored."),
		batches:         reg.Counter("lbs_batch_queries_total", "Batch query calls served."),
		batchEntries:    reg.Counter("lbs_batch_entries_total", "Query entries across all batches."),
		batchSharedHits: reg.Counter("lbs_batch_shared_hits_total", "Batch entries answered from the stationary store's answer memo."),
		memoHits:        reg.Counter("lbs_private_memo_hits_total", "Private NN and class-filtered range queries answered from the stationary store's answer memo."),
		memoMisses:      reg.Counter("lbs_private_memo_misses_total", "Private NN and class-filtered range queries that ran their kernel and offered the answer to the memo."),

		privateUsers: reg.Gauge("lbs_private_users", "Anonymized users currently tracked (cloaked regions stored)."),
		stationary:   reg.Gauge("lbs_stationary_objects", "Stationary public objects indexed."),
		moving:       reg.Gauge("lbs_moving_objects", "Moving public objects indexed."),
		contQueries:  reg.Gauge("lbs_continuous_queries", "Standing continuous queries registered."),

		privateRange: trace.NewStage("lbs_private_range", lat("private_range")),
		privateNN:    trace.NewStage("lbs_private_nn", lat("private_nn")),
		publicCount:  trace.NewStage("lbs_public_count", lat("public_count")),
		publicNN:     trace.NewStage("lbs_public_nn", lat("public_nn")),

		candidates: reg.Histogram("lbs_private_nn_candidates",
			"Private-NN candidate set size after the exact Voronoi decision.",
			obs.CountBuckets),
		falsePosFrac: reg.Histogram("lbs_private_nn_false_positive_ratio",
			"Fraction of returned NN candidates client refinement will discard.",
			obs.RatioBuckets),
		countUsers: reg.Histogram("lbs_public_count_users",
			"Users with positive overlap folded per public count answer (the n of its O(n²) PDF).",
			obs.CountBuckets),
		nodeVisits: reg.Histogram("lbs_index_node_visits",
			"Spatial-index nodes visited per query.",
			obs.CountBuckets),
		batchSize: reg.Histogram("lbs_batch_size",
			"Entries per batch query.",
			obs.CountBuckets),
		batch: trace.NewStage("lbs_batch", reg.Histogram("lbs_batch_seconds",
			"Whole-batch query latency.",
			obs.DefaultLatencyBuckets)),
	}
}

// observeNNAnswer records the candidate-set distributions for one private
// NN answer of n candidates. Exactly one candidate is the true nearest
// neighbor after client refinement, so the false-positive ratio of the
// answer is (n-1)/n.
func (m *metrics) observeNNAnswer(n int) {
	m.candidates.Observe(float64(n))
	if n > 0 {
		m.falsePosFrac.Observe(float64(n-1) / float64(n))
	}
}

// Registry returns the registry the server's series live in — the handle a
// daemon mounts on its /metrics endpoint and exposes over the wire.
func (s *Server) Registry() *obs.Registry { return s.met.reg }

// Metrics returns a snapshot of the counters. The snapshot is not
// atomic across fields, so ordered pairs are read dependent-first:
// BatchQuery adds entries before shared hits, and reading shared hits
// before entries here means any interleaving observes
// SharedHits ≤ Entries — reading them the other way round lets batches
// that complete between the two loads inflate SharedHits past the
// already-captured Entries value.
func (s *Server) Metrics() Metrics {
	sharedHits := s.met.batchSharedHits.Value()
	batchEntries := s.met.batchEntries.Value()
	return Metrics{
		PrivateUpdates:  s.met.privateUpdates.Value(),
		PrivateRemovals: s.met.privateRemovals.Value(),
		MovingUpdates:   s.met.movingUpdates.Value(),
		PrivateRangeQs:  s.met.privateRangeQs.Value(),
		PrivateNNQs:     s.met.privateNNQs.Value(),
		PublicCountQs:   s.met.publicCountQs.Value(),
		PublicNNQs:      s.met.publicNNQs.Value(),
		ContinuousReads: s.met.continuousReads.Value(),
		SnapshotsTaken:  s.met.snapshotsTaken.Value(),
		RestoresApplied: s.met.restoresApplied.Value(),
		Batches:         s.met.batches.Value(),
		BatchEntries:    batchEntries,
		BatchSharedHits: sharedHits,
	}
}
