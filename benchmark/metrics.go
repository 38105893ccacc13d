package main

// metric declares one reported number. BENCHMARK.json carries the same
// names, units and directions; a test holds the two lists equal.
type metric struct {
	name, unit, better string
}

// endToEnd are the numbers a user of the deployment sees, from an
// untraced window. Failed operations are the eighth: the result line
// reports them as failed/attempted rather than as a metric, because a
// share that is zero on every healthy run has no relative bound.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"heap_live_mb", "MB", "lower"},
	{"ops_per_s", "ops/s", "higher"},
	{"update_p50_us", "us", "lower"},
	{"private_query_p50_us", "us", "lower"},
	{"public_count_p50_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"},
}

// perLayer is the ledger of a traced run, <layer>.<name>, layers being
// this repository's packages plus the Go runtime and the load generator.
var perLayer = []metric{
	// Interposed window: counted or timed by the benchmark's decorators.
	{"protocol.frames_per_op", "count", "lower"},
	{"protocol.writes_per_op", "count", "lower"},
	{"protocol.reads_per_op", "count", "lower"},
	{"protocol.client_frames_per_op", "count", "lower"},
	{"protocol.client_bytes_per_op", "B", "lower"},
	{"protocol.forward_bytes_per_op", "B", "lower"},
	{"anonymizer.forward_calls_per_update", "count", "lower"},
	{"anonymizer.forward_wait_us_per_update", "us", "lower"},
	{"anonymizer.forward_wait_share", "share", "lower"},
	{"anonymizer.forward_calls_per_cloak_query", "count", "lower"},
	{"router.shard_calls_per_op", "count", "lower"},
	{"router.shards_per_op", "count", "lower"},
	{"router.shard_wait_us_per_op", "us", "lower"},
	{"router.self_us_per_op", "us", "lower"},
	// Interposed window: counted by the program, read from outside.
	{"anonymizer.reused_share", "share", "higher"},
	{"anonymizer.best_effort_share", "share", "lower"},
	{"anonymizer.batch_shared_hit_share", "share", "higher"},
	{"server.batch_shared_hit_share", "share", "higher"},
	{"server.nn_candidates_per_query", "count", "lower"},
	{"rtree.node_visits_per_query", "count", "lower"},
	// Isolation replay.
	{"protocol.rtt_null_us", "us", "lower"},
	{"protocol.rtt_null_allocs", "count", "lower"},
	{"anonymizer.update_ns", "ns", "lower"},
	{"anonymizer.update_allocs", "count", "lower"},
	{"anonymizer.cloak_query_ns", "ns", "lower"},
	{"anonymizer.batch_update_ns_per_entry", "ns", "lower"},
	{"anonymizer.batch_update_allocs_per_entry", "count", "lower"},
	{"cloak.cloak_ns", "ns", "lower"},
	{"cloak.cloak_allocs", "count", "lower"},
	{"cloak.area_p50", "world_share", "lower"},
	{"cloak.achieved_k_p50", "count", "higher"},
	{"server.update_private_ns", "ns", "lower"},
	{"server.update_private_allocs", "count", "lower"},
	{"server.private_nn_ns", "ns", "lower"},
	{"server.private_nn_allocs", "count", "lower"},
	{"server.private_range_ns", "ns", "lower"},
	{"server.private_range_allocs", "count", "lower"},
	{"server.public_count_ns", "ns", "lower"},
	{"server.public_count_allocs", "count", "lower"},
	{"server.batch_query_ns_per_entry", "ns", "lower"},
	{"server.batch_query_allocs_per_entry", "count", "lower"},
	{"server.range_candidates_per_query", "count", "lower"},
	{"server.count_overlaps_per_query", "count", "lower"},
	{"rtree.search_ns", "ns", "lower"},
	{"rtree.nn_ns", "ns", "lower"},
	{"rtree.bulkload_s", "s", "lower"},
	{"regidx.query_ns", "ns", "lower"},
	{"regidx.hits_per_query", "count", "lower"},
	{"prob.range_count_ns", "ns", "lower"},
	{"router.update_ns", "ns", "lower"},
	{"router.private_nn_ns", "ns", "lower"},
	{"router.public_count_ns", "ns", "lower"},
	// Untraced window of the traced run, process-wide.
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.alloc_bytes_per_op", "B", "lower"},
	{"runtime.gc_cpu_share", "share", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	// The driver's own layer.
	{"loadgen.update_p99_us", "us", "lower"},
	{"loadgen.private_query_p99_us", "us", "lower"},
	{"loadgen.public_count_p99_us", "us", "lower"},
	{"loadgen.samples_update", "count", "higher"},
	{"loadgen.samples_private_query", "count", "higher"},
	{"loadgen.samples_public_count", "count", "higher"},
	{"loadgen.busy_share", "share", "lower"},
	{"loadgen.trace_overhead_share", "share", "lower"},
	{"loadgen.unattributed_share_update", "share", "lower"},
	{"loadgen.unattributed_share_private_query", "share", "lower"},
	{"loadgen.unattributed_share_public_count", "share", "lower"},
}

// value is one reported number in the result line's shape.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report builds the metrics object from measured numbers, in the
// declared set and with the declared units; a name missing from vals is a
// programming error the metric-set test catches.
func report(decl []metric, vals map[string]float64) map[string]value {
	out := make(map[string]value, len(decl))
	for _, m := range decl {
		out[m.name] = value{Value: vals[m.name], Unit: m.unit}
	}
	return out
}
