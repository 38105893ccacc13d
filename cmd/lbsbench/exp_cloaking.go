package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/attack"
	"repro/internal/cloak"
	"repro/internal/mobility"
)

// leakRow evaluates one cloaker under the center attack and the edge-gap
// statistic, and times it.
func leakRow(c cloak.Cloaker, p population, k, samples int, seed uint64) (perCloak time.Duration, meanArea float64, rep attack.Report) {
	// Timing over the sample set.
	stride := len(p.pts)/samples + 1
	t0 := time.Now()
	count := 0
	for i := 0; i < len(p.pts); i += stride {
		c.Cloak(uint64(i+1), p.pts[i], reqK(k))
		count++
	}
	perCloak = time.Since(t0) / time.Duration(count)

	// Leakage evaluation with anonymity sets attached.
	var sams []attack.Sample
	areaSum := 0.0
	for i := 0; i < len(p.pts) && len(sams) < samples; i += stride {
		loc := p.pts[i]
		res := c.Cloak(uint64(i+1), loc, reqK(k))
		set := p.gi.Search(res.Region, nil)
		s := attack.Sample{Region: res.Region, TrueLoc: loc}
		for _, o := range set {
			s.SetLocs = append(s.SetLocs, o.Loc)
		}
		sams = append(sams, s)
		areaSum += res.Region.Area()
	}
	return perCloak, areaSum / float64(len(sams)), attack.Evaluate(attack.Center{}, sams, 0.005, seed)
}

// expDataDependent regenerates Figure 3: the two data-dependent cloakers,
// their cost, and the leakage that motivates the space-dependent family.
func expDataDependent(cfg benchConfig, r *report) {
	reps := runCloakComparison(cfg, []namedCloaker{
		{"naive (Fig 3a)", func(p population) cloak.Cloaker { return &cloak.Naive{Pop: p.pop} }},
		{"mbr (Fig 3b)", func(p population) cloak.Cloaker { return &cloak.MBR{Pop: p.pop} }},
	})
	naive, mbr := reps["naive (Fig 3a)"], reps["mbr (Fig 3b)"] // [0] and [3] are k = 10
	r.check("naive: the center guess finds most users at k = 10", min(naive[0].HitRate, naive[3].HitRate) > 0.5,
		"hit %% %.4g / %.4g (uniform / gaussian)", 100*naive[0].HitRate, 100*naive[3].HitRate)
	r.check("mbr leaks less at the center than naive at k = 10",
		mbr[0].Leakage < naive[0].Leakage && mbr[3].Leakage < naive[3].Leakage,
		"leakage %.4g / %.4g against %.4g / %.4g", mbr[0].Leakage, mbr[3].Leakage, naive[0].Leakage, naive[3].Leakage)
	gap := 0.0
	for _, rep := range mbr {
		gap = max(gap, rep.MeanEdgeGap)
	}
	r.check("mbr: an anonymity-set member on every edge", gap == 0, "largest edge gap %.4g over 6 rows", gap)
}

// expSpaceDependent regenerates Figure 4: quadtree and grid cloaking.
func expSpaceDependent(cfg benchConfig, r *report) {
	leak, gap := 0.0, math.Inf(1)
	for _, reps := range runCloakComparison(cfg, []namedCloaker{
		{"quadtree (Fig 4a)", func(p population) cloak.Cloaker { return &cloak.Quadtree{Pyr: p.pyr} }},
		{"grid L6 (Fig 4b)", func(p population) cloak.Cloaker { return &cloak.Grid{Pyr: p.pyr, Level: 6} }},
		{"grid-ml L4", func(p population) cloak.Cloaker { return &cloak.Grid{Pyr: p.pyr, Level: 4, MultiLevel: true} }},
	}) {
		for i, rep := range reps {
			leak = max(leak, rep.Leakage)
			if i%3 < 2 { // k ≤ 50
				gap = min(gap, rep.MeanEdgeGap)
			}
		}
	}
	r.check("center-attack leakage stays at or below 0.3 in every row", leak <= 0.3, "largest leakage %.4g", leak)
	r.check("every set member off the region's edges (edge gap > 0) at k ≤ 50", gap > 0, "smallest edge gap %.4g", gap)
}

type namedCloaker struct {
	name string
	make func(p population) cloak.Cloaker
}

// runCloakComparison prints one table per distribution and returns each
// cloaker's attack reports by distribution (uniform, gaussian), then k
// (10, 50, 200).
func runCloakComparison(cfg benchConfig, cloakers []namedCloaker) map[string][]attack.Report {
	reps := map[string][]attack.Report{}
	for _, dist := range []mobility.Distribution{mobility.Uniform, mobility.Gaussian} {
		p := buildPopulation(cfg.n, dist, cfg.seed, 10)
		fmt.Printf("\npopulation: %d users, %v distribution\n", cfg.n, dist)
		t := newTable("cloaker", "k", "cloak time", "mean area", "leakage", "hit %", "edge gap")
		for _, k := range []int{10, 50, 200} {
			for _, nc := range cloakers {
				perCloak, area, rep := leakRow(nc.make(p), p, k, 300, cfg.seed)
				t.row(nc.name, k, perCloak, area, rep.Leakage, 100*rep.HitRate, rep.MeanEdgeGap)
				reps[nc.name] = append(reps[nc.name], rep)
			}
		}
		t.flush()
	}
	return reps
}
