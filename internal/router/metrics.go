package router

import (
	"strconv"

	"repro/internal/obs"
	"repro/internal/trace"
)

// metrics is the router's instrument set — the route_* family. Fanout and
// straddle series say how well the tile grid matches the workload's cloak
// sizes; the per-shard call/error counters are what the shard_kill
// scenario (and an operator) watch to see a breaker isolate a dead shard.
type metrics struct {
	fanout     *obs.Histogram
	straddles  *obs.Counter
	relays     *obs.Counter
	fallbacks  *obs.Counter
	handoffs   *obs.Counter
	users      *obs.Gauge
	gather     trace.Stage // route_gather span → route_gather_seconds
	shardCalls []*obs.Counter
	shardErrs  []*obs.Counter
}

func newMetrics(reg *obs.Registry, nshards int) *metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &metrics{
		fanout: reg.Histogram("route_scatter_fanout",
			"Shards contacted per scattered request.",
			obs.ExpBuckets(1, 2, 7)),
		straddles: reg.Counter("route_straddles_total",
			"Scatters whose rectangle straddled a shard-ownership boundary (fanout > 1)."),
		handoffs: reg.Counter("route_handoffs_total",
			"Moving-object tile handoffs (upsert on the new owner, removal from the old)."),
		users: reg.Gauge("route_users",
			"Private users the router tracks as resident on at least one shard."),
		gather: trace.NewStage("route_gather", reg.Histogram("route_gather_seconds",
			"Time spent merging per-shard partial results into the final answer.",
			obs.ExpBuckets(1e-6, 4, 10))),
	}
	relays := func(outcome string) *obs.Counter {
		return reg.Counter("route_relays_total",
			"Single-owner requests relayed whole to their shard: kept (relayed), or a private NN whose bound left the shard (fallback).",
			obs.L("outcome", outcome))
	}
	m.relays, m.fallbacks = relays("relayed"), relays("fallback")
	for i := 0; i < nshards; i++ {
		l := obs.L("shard", strconv.Itoa(i))
		m.shardCalls = append(m.shardCalls, reg.Counter("route_shard_calls_total",
			"Sub-requests dispatched, per shard.", l))
		m.shardErrs = append(m.shardErrs, reg.Counter("route_shard_errors_total",
			"Sub-requests failed, per shard.", l))
	}
	return m
}
