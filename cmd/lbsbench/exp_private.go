package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/cloak"
	"repro/internal/mobility"
	"repro/internal/server"
)

// expPrivateRange regenerates Figure 5a: private range queries over public
// data — candidate-set size and transfer cost as the privacy level (k,
// hence cloaked-region size) and the query radius grow, with completeness
// verified against the exact locations.
func expPrivateRange(cfg benchConfig, r *report) {
	srv, objs := buildServerWithObjects(cfg.objs, cfg.seed+100)
	p := buildPopulation(cfg.n, mobility.Uniform, cfg.seed, 10)
	q := &cloak.Quadtree{Pyr: p.pyr}

	fmt.Printf("%d public objects, %d users; candidates vs k and radius\n\n", cfg.objs, cfg.n)
	t := newTable("k", "radius", "mean region area", "mean candidates", "mean answer", "overhead x", "bytes", "query time")
	var prevK [3]float64 // mean candidates at the previous k, by radius
	var mid []float64    // mean candidates at radius 0.05, by k
	wrong, checked, shrinks := 0, 0, 0
	for _, k := range []int{1, 10, 50, 200, 1000} {
		prevR := 0.0
		for ri, radius := range []float64{0.02, 0.05, 0.1} {
			samples := cloakSamples(q, p, k, 100)
			var candSum, ansSum, byteSum int
			var areaSum float64
			var elapsed time.Duration
			for _, s := range samples {
				t0 := time.Now()
				cands, err := srv.PrivateRange(server.PrivateRangeQuery{
					Region: s.region, Radius: radius,
				})
				elapsed += time.Since(t0)
				must(err)
				refined := server.RefineRange(s.loc, radius, cands)
				candSum += len(cands)
				ansSum += len(refined)
				byteSum += server.TransmissionCost(cands)
				areaSum += s.region.Area()
				// Completeness spot check against brute force.
				want := 0
				for _, o := range objs {
					if s.loc.Dist(o.Loc) <= radius {
						want++
					}
				}
				if len(refined) != want {
					wrong++
				}
				checked++
			}
			n := float64(len(samples))
			overhead := float64(candSum) / max(float64(ansSum), 1)
			t.row(k, radius, areaSum/n, float64(candSum)/n, float64(ansSum)/n,
				overhead, float64(byteSum)/n, elapsed/time.Duration(len(samples)))
			c := float64(candSum) / n
			if c < prevR || c < prevK[ri] {
				shrinks++
			}
			prevR, prevK[ri] = c, c
			if ri == 1 {
				mid = append(mid, c)
			}
		}
	}
	t.flush()
	r.check("refined answers equal brute force (I5)", wrong == 0, "%d of %d answers differ", wrong, checked)
	r.check("candidates never shrink as k or the radius grows", shrinks == 0,
		"%d rows shrink; %.4g at radius 0.05 from k = 1 to 1000", shrinks, mid)
}

// expPrivateNN regenerates Figure 5b: private nearest-neighbor queries —
// the min–max superset and the exact answer set (every object whose Voronoi
// cell meets the region), with exactness of the refined answer verified for
// sampled positions.
func expPrivateNN(cfg benchConfig, r *report) {
	srv, objs := buildServerWithObjects(cfg.objs, cfg.seed+200)
	p := buildPopulation(cfg.n, mobility.Uniform, cfg.seed, 10)
	q := &cloak.Quadtree{Pyr: p.pyr}

	fmt.Printf("%d public objects, %d users\n\n", cfg.objs, cfg.n)
	t := newTable("k", "mean region area", "superset", "candidates", "pruned %", "bytes", "query time")
	var cands []float64
	wrong, checked, unpruned := 0, 0, 0
	for _, k := range []int{1, 10, 50, 200, 1000} {
		samples := cloakSamples(q, p, k, 100)
		var superSum, candSum, byteSum int
		var areaSum float64
		var elapsed time.Duration
		for _, s := range samples {
			t0 := time.Now()
			res, err := srv.PrivateNN(server.PrivateNNQuery{Region: s.region})
			elapsed += time.Since(t0)
			must(err)
			superSum += res.SupersetSize
			candSum += len(res.Candidates)
			byteSum += server.TransmissionCost(res.Candidates)
			areaSum += s.region.Area()
			// Exactness of refinement at the true location.
			got, found := server.RefineNN(s.loc, res.Candidates)
			bestD := math.Inf(1)
			for _, o := range objs {
				bestD = min(bestD, s.loc.Dist2(o.Loc))
			}
			if !found || s.loc.Dist2(got.Loc) != bestD {
				wrong++
			}
			checked++
		}
		n := float64(len(samples))
		pruned := 100 * (1 - float64(candSum)/max(float64(superSum), 1))
		t.row(k, areaSum/n, float64(superSum)/n, float64(candSum)/n, pruned,
			float64(byteSum)/n, elapsed/time.Duration(len(samples)))
		cands = append(cands, float64(candSum)/n)
		if pruned == 0 && areaSum < n*world.Area() {
			unpruned++
		}
	}
	t.flush()
	r.check("refined answers equal brute force (I6)", wrong == 0, "%d of %d answers differ", wrong, checked)
	r.check("candidates never shrink as k grows", slices.IsSorted(cands), "%.4g from k = 1 to 1000", cands)
	r.check("the Voronoi set drops part of the min–max superset unless every region is the world",
		unpruned == 0, "%d rows prune nothing with a region smaller than the world", unpruned)
}
