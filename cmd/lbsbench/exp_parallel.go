package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"repro/internal/anonymizer"
	"repro/internal/cloak"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/privacy"
	"repro/internal/rng"
)

// expParallel (E16) measures the sharded batch pipeline: updates/sec for
// the batch and single-call paths at shard counts 1, 4 and 8 (workers =
// shards), over a gaussian-clustered waypoint population, at the
// process's GOMAXPROCS.
func expParallel(cfg benchConfig) {
	const rounds, passes = 10, 5
	n := cfg.n
	fmt.Printf("%d users (gaussian clusters), %d rounds per series, GOMAXPROCS=%d\n\n",
		n, rounds, runtime.GOMAXPROCS(0))

	t := newTable("mode", "shards", "workers", "updates/sec", "shared hits %")
	for _, mode := range []string{"batch", "single"} {
		for _, shards := range []int{1, 4, 8} {
			pts, err := mobility.GeneratePoints(mobility.PopulationSpec{
				N: n, World: world, Dist: mobility.Gaussian, Seed: cfg.seed,
			})
			if err != nil {
				log.Fatalf("lbsbench: %v", err)
			}
			anon, err := anonymizer.New(anonymizer.Config{
				World: world, Shards: shards, BatchWorkers: shards,
			})
			if err != nil {
				log.Fatalf("lbsbench: %v", err)
			}
			prof := privacy.Constant(reqK(25))
			reqs := make([]cloak.Request, n)
			for i, p := range pts {
				anon.Register(uint64(i+1), prof)
				reqs[i] = cloak.Request{ID: uint64(i + 1), Loc: p}
			}
			anon.BatchUpdate(reqs) // warm the indices
			src := rng.New(cfg.seed + 99)
			drift := func() {
				for i := range reqs {
					reqs[i].Loc = world.ClampPoint(geo.Pt(
						reqs[i].Loc.X+src.Range(-0.002, 0.002),
						reqs[i].Loc.Y+src.Range(-0.002, 0.002)))
				}
			}
			runPass := func() time.Duration {
				t0 := time.Now()
				for r := 0; r < rounds; r++ {
					drift()
					if mode == "batch" {
						anon.BatchUpdate(reqs)
					} else {
						for _, rq := range reqs {
							if _, err := anon.Update(rq.ID, rq.Loc); err != nil {
								log.Fatalf("lbsbench: %v", err)
							}
						}
					}
				}
				return time.Since(t0)
			}
			// Best of several passes: on a shared box a single pass is at
			// the mercy of scheduler noise; the fastest pass is the closest
			// estimate of the machine's true capability.
			elapsed := runPass()
			for p := 1; p < passes; p++ {
				if d := runPass(); d < elapsed {
					elapsed = d
				}
			}
			st := anon.Stats()
			sharedPct := 0.0
			if mode == "batch" && st.Updates > 0 {
				sharedPct = 100 * float64(st.SharedHits) / float64(st.Updates)
			}
			t.row(mode, shards, anon.BatchWorkers(), float64(n*rounds)/elapsed.Seconds(), sharedPct)
		}
	}
	t.flush()

	fmt.Println("\nreading: the batch pipeline amortizes admission into one locked pass")
	fmt.Println("per shard and fans the cloaking descents out over the worker pool; on")
	fmt.Println("a multicore host throughput scales with the shard count until the")
	fmt.Println("index write lock saturates. Results are bit-identical at every point")
	fmt.Println("of the grid (differential suite).")
}
