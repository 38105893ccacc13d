package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/cloak"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/rng"
	"repro/internal/server"
)

// buildPrivateServer cloaks every user with the quadtree cloaker at the
// given k and stores the regions in a fresh server; returns the server and
// each user's region and exact location (ground truth), user i+1 at i.
func buildPrivateServer(cfg benchConfig, k int) (*server.Server, []regionSample) {
	p := buildPopulation(cfg.n, mobility.Uniform, cfg.seed, 10)
	srv, err := server.New(server.Config{World: world})
	must(err)
	q := &cloak.Quadtree{Pyr: p.pyr}
	users := make([]regionSample, len(p.pts))
	for i, loc := range p.pts {
		users[i] = regionSample{q.Cloak(uint64(i+1), loc, reqK(k)).Region, loc}
		must(srv.UpdatePrivate(uint64(i+1), users[i].region))
	}
	return srv, users
}

// expPublicCount regenerates Figure 6a: probabilistic range counts over
// cloaked users in the three answer formats, against the naive baseline.
func expPublicCount(cfg benchConfig, r *report) {
	fmt.Printf("%d users cloaked at several privacy levels; 30 random queries each\n\n", cfg.n)
	t := newTable("k", "query side", "true count", "E[count]", "naive", "E err %", "naive err %", "interval width", "time")
	src := rng.New(cfg.seed + 300)
	var widths, naiveErrs [2][]float64 // by query side, then k
	missed, worse := 0, 0
	for _, k := range []int{10, 50, 200} {
		srv, users := buildPrivateServer(cfg, k)
		for si, side := range []float64{0.1, 0.25} {
			var truthSum, naiveSum int
			var expectSum, expErr, naiveErr, widthSum float64
			var elapsed time.Duration
			const trials = 30
			for i := 0; i < trials; i++ {
				c := geo.Pt(src.Range(side/2, 1-side/2), src.Range(side/2, 1-side/2))
				query := geo.RectAround(c, side/2)
				t0 := time.Now()
				res, err := srv.PublicRangeCount(server.PublicRangeCountQuery{Query: query})
				elapsed += time.Since(t0)
				must(err)
				truth := 0
				for _, u := range users {
					if query.Contains(u.loc) {
						truth++
					}
				}
				if truth < res.Answer.Lo || truth > res.Answer.Hi || res.Answer.Hi != res.NaiveCount {
					missed++
				}
				truthSum += truth
				naiveSum += res.NaiveCount
				expectSum += res.Answer.Expected
				expErr += math.Abs(res.Answer.Expected - float64(truth))
				naiveErr += math.Abs(float64(res.NaiveCount) - float64(truth))
				widthSum += float64(res.Answer.Hi - res.Answer.Lo)
			}
			meanTruth := float64(truthSum) / trials
			expPct, naivePct := 100*expErr/trials/max(meanTruth, 1), 100*naiveErr/trials/max(meanTruth, 1)
			t.row(k, side, meanTruth, expectSum/trials, float64(naiveSum)/trials,
				expPct, naivePct, widthSum/trials, elapsed/trials)
			if expPct >= naivePct {
				worse++
			}
			widths[si] = append(widths[si], widthSum/trials)
			naiveErrs[si] = append(naiveErrs[si], naivePct)
		}
	}
	t.flush()
	r.check("the interval brackets the true count and tops out at the naive count (I7)", missed == 0,
		"%d of 180 intervals miss the truth or the naive count", missed)
	r.check("the expected value errs less than the naive count in every row", worse == 0,
		"%d of 6 rows where it does not", worse)
	r.check("interval width and naive error never shrink as k grows",
		slices.IsSorted(widths[0]) && slices.IsSorted(widths[1]) && slices.IsSorted(naiveErrs[0]) && slices.IsSorted(naiveErrs[1]),
		"widths %.4g and %.4g, naive error %% %.4g and %.4g (sides 0.1 and 0.25)", widths[0], widths[1], naiveErrs[0], naiveErrs[1])
}

// expPublicNN regenerates Figure 6b: the e-coupon query — candidate-set
// size after min–max pruning, and the quality of the probability
// assignment against brute-force ground truth over many trials.
func expPublicNN(cfg benchConfig, r *report) {
	fmt.Printf("%d users; 25 random query points per privacy level\n\n", cfg.n)
	t := newTable("k", "pruned", "candidates", "P(best is true NN)", "true NN in cands %", "time")
	src := rng.New(cfg.seed + 400)
	var pruned, cands, best []float64
	missed, wrongSet := 0, 0
	for _, k := range []int{10, 50, 200} {
		srv, users := buildPrivateServer(cfg, k)
		var prunedSum, candSum int
		var bestHit, containHit int
		var elapsed time.Duration
		const trials = 25
		for i := 0; i < trials; i++ {
			q := geo.Pt(src.Float64(), src.Float64())
			t0 := time.Now()
			res, err := srv.PublicNN(server.PublicNNQuery{From: q, Samples: 2000, Seed: uint64(i + 1)})
			elapsed += time.Since(t0)
			must(err)
			prunedSum += res.PrunedCount
			candSum += len(res.Candidates)
			// Ground truth: the nearest exact location, and Figure 6b's rule
			// by brute force — keep each user whose region's MinDist is
			// within the smallest MaxDist.
			bestD, bound := math.Inf(1), math.Inf(1)
			var trueNN uint64
			for j, u := range users {
				if d := q.Dist2(u.loc); d < bestD {
					bestD, trueNN = d, uint64(j+1)
				}
				bound = min(bound, geo.MaxDist2(q, u.region))
			}
			kept := 0
			for _, u := range users {
				if geo.MinDist2(q, u.region) <= bound {
					kept++
				}
			}
			if kept != len(res.Candidates) {
				wrongSet++
			}
			if _, ok := res.CandidateRegions[trueNN]; ok {
				containHit++
			}
			if res.Best.ID == trueNN {
				bestHit++
			}
		}
		t.row(k, float64(prunedSum)/trials, float64(candSum)/trials,
			float64(bestHit)/trials, 100*float64(containHit)/trials,
			elapsed/trials)
		missed += trials - containHit
		pruned = append(pruned, float64(prunedSum)/trials)
		cands = append(cands, float64(candSum)/trials)
		best = append(best, float64(bestHit)/trials)
	}
	t.flush()
	r.check("the true nearest user is a candidate on every trial (I8)", missed == 0,
		"%d of 75 trials miss it", missed)
	r.check("candidates are exactly the users min–max dominance cannot rule out", wrongSet == 0,
		"%d of 75 trials differ from the brute-force rule", wrongSet)
	r.check("min–max pruning never discards more users as k grows", falling(pruned),
		"%.4g of %d pruned at k = 10, 50, 200", pruned, cfg.n)
	r.check("at k = 10 the most probable user beats a uniform guess over the candidates",
		best[0] > 1/cands[0], "P(best is true NN) %.4g against 1/%.4g", best[0], cands[0])
}
