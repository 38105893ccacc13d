package main

import (
	"fmt"
	"time"

	"repro/internal/cloak"
	"repro/internal/mobility"
	"repro/internal/server"
)

// expPrivateRange regenerates Figure 5a: private range queries over public
// data — candidate-set size and transfer cost as the privacy level (k,
// hence cloaked-region size) and the query radius grow, with completeness
// verified against the exact locations.
func expPrivateRange(cfg benchConfig) {
	srv, objs := buildServerWithObjects(cfg.objs, cfg.seed+100)
	p := buildPopulation(cfg.n, mobility.Uniform, cfg.seed)
	q := &cloak.Quadtree{Pyr: p.pyr}

	fmt.Printf("%d public objects, %d users; candidates vs k and radius\n\n", cfg.objs, cfg.n)
	t := newTable("k", "radius", "mean region area", "mean candidates", "mean answer", "overhead x", "bytes", "query time")
	for _, k := range []int{1, 10, 50, 200, 1000} {
		for _, radius := range []float64{0.02, 0.05, 0.1} {
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
				if err != nil {
					fmt.Printf("error: %v\n", err)
					return
				}
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
					fmt.Printf("COMPLETENESS VIOLATION: refined %d != brute %d\n", len(refined), want)
					return
				}
			}
			n := float64(len(samples))
			overhead := float64(candSum) / maxf(float64(ansSum), 1)
			t.row(k, radius, areaSum/n, float64(candSum)/n, float64(ansSum)/n,
				overhead, float64(byteSum)/n, elapsed/time.Duration(len(samples)))
		}
	}
	t.flush()
	fmt.Println("\nreading: candidates grow with k (privacy) and radius; the")
	fmt.Println("overhead column is the paper's privacy/QoS trade-off — every")
	fmt.Println("refined answer was verified against brute force.")
}

// expPrivateNN regenerates Figure 5b: private nearest-neighbor queries —
// the min–max superset and the exact answer set (every object whose Voronoi
// cell meets the region), with exactness of the refined answer verified for
// sampled positions.
func expPrivateNN(cfg benchConfig) {
	srv, objs := buildServerWithObjects(cfg.objs, cfg.seed+200)
	p := buildPopulation(cfg.n, mobility.Uniform, cfg.seed)
	q := &cloak.Quadtree{Pyr: p.pyr}

	fmt.Printf("%d public objects, %d users\n\n", cfg.objs, cfg.n)
	t := newTable("k", "mean region area", "superset", "candidates", "pruned %", "bytes", "query time")
	for _, k := range []int{1, 10, 50, 200, 1000} {
		samples := cloakSamples(q, p, k, 100)
		var superSum, candSum, byteSum int
		var areaSum float64
		var elapsed time.Duration
		ok := true
		for _, s := range samples {
			t0 := time.Now()
			res, err := srv.PrivateNN(server.PrivateNNQuery{Region: s.region})
			elapsed += time.Since(t0)
			if err != nil {
				fmt.Printf("error: %v\n", err)
				return
			}
			superSum += res.SupersetSize
			candSum += len(res.Candidates)
			byteSum += server.TransmissionCost(res.Candidates)
			areaSum += s.region.Area()
			// Exactness of refinement at the true location.
			got, found := server.RefineNN(s.loc, res.Candidates)
			if !found {
				ok = false
				continue
			}
			bestD := -1.0
			for _, o := range objs {
				d := s.loc.Dist2(o.Loc)
				if bestD < 0 || d < bestD {
					bestD = d
				}
			}
			if s.loc.Dist2(got.Loc) != bestD {
				ok = false
			}
		}
		if !ok {
			fmt.Println("EXACTNESS VIOLATION in private NN refinement")
			return
		}
		n := float64(len(samples))
		pruned := 100 * (1 - float64(candSum)/maxf(float64(superSum), 1))
		t.row(k, areaSum/n, float64(superSum)/n, float64(candSum)/n, pruned,
			float64(byteSum)/n, elapsed/time.Duration(len(samples)))
	}
	t.flush()
	fmt.Println("\nreading: like Figure 5b, the answer is exactly the objects whose")
	fmt.Println("Voronoi cell meets the region: targets such as A, which B and C")
	fmt.Println("beat together everywhere, are gone at every k, with no size cutoff;")
	fmt.Println("candidate sets still grow with k — the privacy/QoS trade-off.")
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
