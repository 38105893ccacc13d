// Command lbsrouter runs the spatially-partitioned routing tier: a thin
// server that spreads one logical privacy-aware database over N lbsd
// shards. Space is cut into a grid of tiles, each shard owns one
// contiguous Hilbert-curve range of them, and a request one shard owns is
// relayed to it whole; any other is scattered to exactly the shards whose
// tiles its rectangle intersects, then gathered back through the same
// combination rules the single server uses — so clients dial a router
// exactly as they dial one lbsd and read bit-identical answers.
//
// Shard links carry per-call deadlines, bounded retries with jittered
// backoff, and a failure breaker, so one dead shard degrades only the
// queries touching its tiles. With -max-inflight set, the router sheds
// load at the edge with typed overload rejections before the fan-out
// amplifies it.
//
// Usage:
//
//	lbsrouter -addr :7080 -shards 127.0.0.1:7070,127.0.0.1:7071 -world 1.0
package main

import (
	"flag"
	"log"
	"strings"

	"repro/internal/geo"
	"repro/internal/router"
	"repro/internal/stack"
)

func main() {
	d := stack.NewDaemon("lbsrouter", "lbsrouter")
	addr := flag.String("addr", ":7080", "listen address")
	shardList := flag.String("shards", "", "comma-separated lbsd shard addresses (required)")
	worldSize := flag.Float64("world", 1.0, "world is the square [0,size]², identical to every shard's")
	tiles := flag.Int("tiles", 0, "grid resolution per axis (0 = default 16)")
	callTimeout := flag.Duration("call-timeout", stack.ShardCallTimeout, "per-call deadline on shard links (0 = protocol.DefaultCallTimeout)")
	retries := flag.Int("retries", stack.ShardRetries, "transport retries per idempotent shard call")
	breakAfter := flag.Int("break-after", stack.ShardBreakAfter, "consecutive shard-link failures before the breaker opens (0 = no breaker)")
	breakCooldown := flag.Duration("break-cooldown", stack.ShardBreakCooldown, "breaker open duration before a probe")
	flag.Parse()

	if *shardList == "" {
		log.Fatalf("lbsrouter: -shards is required (comma-separated lbsd addresses)")
	}
	var addrs []string
	for _, a := range strings.Split(*shardList, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 || len(addrs) > router.MaxShards {
		log.Fatalf("lbsrouter: need between 1 and %d shard addresses, got %d", router.MaxShards, len(addrs))
	}

	ops := d.Start()
	links := stack.Links{CallTimeout: *callTimeout, Retries: *retries, BreakAfter: *breakAfter, BreakCooldown: *breakCooldown}
	rt, err := stack.ServeRouter(*addr, addrs, links,
		router.Config{World: geo.R(0, 0, *worldSize, *worldSize), Tiles: *tiles}, ops)
	if err != nil {
		log.Fatalf("lbsrouter: %v", err)
	}
	log.Printf("lbsrouter: routing tier listening on %s over %d shards (world %.3g², %d tiles)",
		rt.Svc.Addr(), len(addrs), *worldSize, len(rt.Topology().Owners))

	d.Wait()
	rt.Close()
}
