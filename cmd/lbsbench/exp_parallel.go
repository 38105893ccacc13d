package main

import (
	"fmt"
	"runtime"
	"slices"
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
func expParallel(cfg benchConfig, r *report) {
	const rounds, passes = 10, 5
	n := cfg.n
	fmt.Printf("%d users (gaussian clusters), %d rounds per series, GOMAXPROCS=%d\n\n",
		n, rounds, runtime.GOMAXPROCS(0))

	t := newTable("mode", "shards", "workers", "updates/sec", "shared hits %")
	var batchShared []float64
	pts := points(n, mobility.Gaussian, cfg.seed)
	for _, mode := range []string{"batch", "single"} {
		for _, shards := range []int{1, 4, 8} {
			anon, err := anonymizer.New(anonymizer.Config{
				World: world, Shards: shards, BatchWorkers: shards,
			})
			must(err)
			prof := privacy.Constant(reqK(25))
			reqs := make([]cloak.Request, n)
			for i, p := range pts {
				must(anon.Register(uint64(i+1), prof))
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
				for round := 0; round < rounds; round++ {
					drift()
					if mode == "batch" {
						anon.BatchUpdate(reqs)
					} else {
						for _, rq := range reqs {
							_, err := anon.Update(rq.ID, rq.Loc)
							must(err)
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
				batchShared = append(batchShared, sharedPct)
			}
			t.row(mode, shards, anon.BatchWorkers(), float64(n*rounds)/elapsed.Seconds(), sharedPct)
		}
	}
	t.flush()
	fmt.Println("\nnote: a cost table with no paper claim; answers are bit-identical at every shard count (differential suite).")
	r.check("batch shared hits are the same at every shard count", slices.Min(batchShared) == slices.Max(batchShared),
		"shared hits %% %.4g at 1, 4, 8 shards", batchShared)
}
