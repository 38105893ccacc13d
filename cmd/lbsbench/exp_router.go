package main

import (
	"fmt"
	"log"
	"runtime"
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/stack"
)

// expRouterScale (E20) measures the spatially-partitioned routing tier
// against a single database over real loopback TCP: identical seeded
// data, identical mixed query workload, one lbsd dialed directly vs a
// router fanned out over 1, 2 and 4 shards, at the process's GOMAXPROCS.
// The 1-shard router isolates the tier's own overhead (one extra hop plus
// scatter/gather accounting); the multi-shard rows show what spreading
// tiles across servers costs or buys on those cores. Answers are
// bit-identical in every topology (the router differential suite), so
// this table is purely about cost.
func expRouterScale(cfg benchConfig, _ *report) {
	const queries = 2000
	workers := runtime.GOMAXPROCS(0)
	fmt.Printf("%d private users, %d public objects, %d mixed queries, %d workers, GOMAXPROCS=%d\n\n",
		cfg.n, cfg.objs, queries, workers, runtime.GOMAXPROCS(0))

	type topo struct {
		name   string
		shards int // 0 = dial the database directly, no router
	}
	grid := []topo{
		{"direct", 0},
		{"router", 1},
		{"router", 2},
		{"router", 4},
	}

	t := newTable("topology", "shards", "queries/sec", "vs direct")
	var base float64
	for _, tp := range grid {
		st, err := stack.Boot(stack.Topology{Shards: tp.shards})
		must(err)
		cli, err := protocol.DialDatabase(st.DBAddr())
		must(err)
		loadBenchData(cli, cfg)
		cli.Close()
		qps := driveRouterTier(st.DBAddr(), cfg.seed, queries, workers)
		st.Close()
		rel := "1.00x"
		if base == 0 {
			base = qps
		} else {
			rel = fmt.Sprintf("%.2fx", qps/base)
		}
		t.row(tp.name, tp.shards, qps, rel)
	}
	t.flush()
	fmt.Println("\nnote: a cost ledger with no paper claim; whether the routed tier can pass the direct baseline is open (EXPERIMENTS.md E20).")
}

// driveRouterTier fans the mixed query workload over worker connections
// and reports aggregate queries/sec. The workload is seeded per worker,
// so every topology answers exactly the same queries.
func driveRouterTier(addr string, seed uint64, queries, workers int) float64 {
	per := queries / workers
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cli, err := protocol.DialDatabase(addr, protocol.WithCallTimeout(10*time.Second))
			must(err)
			defer cli.Close()
			src := rng.New(seed + 1000 + uint64(w)*7919)
			for i := 0; i < per; i++ {
				p := geo.Pt(src.Range(0.1, 0.9), src.Range(0.1, 0.9))
				r := geo.RectAround(p, 0.02+0.05*src.Float64()).Clip(world)
				switch src.Intn(5) {
				case 0, 1:
					_, err = cli.PrivateRange(server.PrivateRangeQuery{Region: r, Radius: 0.03 * src.Float64(), Class: "poi"})
				case 2, 3:
					_, err = cli.PublicCount(r)
				default:
					_, err = cli.PrivateNN(server.PrivateNNQuery{Region: r, Class: "poi"})
				}
				if err != nil {
					log.Fatalf("lbsbench: worker %d: %v", w, err)
				}
			}
		}(w)
	}
	wg.Wait()
	return float64(per*workers) / time.Since(t0).Seconds()
}
