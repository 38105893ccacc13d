package main

import (
	"fmt"
	"slices"

	"repro/internal/altpriv"
	"repro/internal/cloak"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/privacy"
	"repro/internal/track"
)

// expAlternatives (E12) compares spatial k-anonymity against the two
// alternative mechanisms the paper surveys in Section 2.1 — false dummies
// and landmark objects — under comparable adversaries, plus the service
// cost each mechanism implies.
func expAlternatives(cfg benchConfig, r *report) {
	p := buildPopulation(cfg.n, mobility.Uniform, cfg.seed, 10)
	fmt.Printf("%d users, uniform distribution\n\n", cfg.n)

	// k-anonymity reference rows (center attack, as in E2/E3).
	t := newTable("mechanism", "param", "leakage", "exact-hit %", "notes")
	for _, k := range []int{10, 50} {
		_, _, rep := leakRow(&cloak.Quadtree{Pyr: p.pyr}, p, k, 300, cfg.seed)
		t.row("k-anonymity (quadtree)", fmt.Sprintf("k=%d", k),
			rep.Leakage, 100*rep.HitRate, "guaranteed ≥k users")
	}

	// False dummies: uniform-pick adversary.
	var pickOverPrior []float64 // pick rate × n: 1 for a uniform pick
	for _, n := range []int{5, 20} {
		g, err := altpriv.NewDummyGenerator(world, n, 0.01, cfg.seed)
		must(err)
		var sams []altpriv.DummySample
		stride := len(p.pts)/300 + 1
		for i := 0; i < len(p.pts) && len(sams) < 300; i += stride {
			repp, _ := g.Report(uint64(i+1), p.pts[i])
			sams = append(sams, altpriv.DummySample{Report: repp, TrueLoc: p.pts[i]})
		}
		eval := altpriv.EvaluateDummies(sams, cfg.seed+1)
		pickOverPrior = append(pickOverPrior, eval.PickRate*float64(n))
		t.row("false dummies", fmt.Sprintf("n=%d", n),
			eval.Leakage, 100*eval.PickRate,
			fmt.Sprintf("n× query cost; motion filter below"))
	}

	// Landmarks: the adversary's guess IS the landmark.
	var alone float64 // share of users alone at their landmark, at |L| = 1000
	for _, nl := range []int{100, 1000} {
		lm, err := altpriv.NewLandmarks(points(nl, mobility.Uniform, cfg.seed+9))
		must(err)
		eval := altpriv.EvaluateLandmarks(lm, p.pts)
		alone = eval.AloneRate
		t.row("landmarks", fmt.Sprintf("|L|=%d", nl),
			"-", "-",
			fmt.Sprintf("err %.4f, mean cell pop %.1f, alone %.1f%%",
				eval.MeanError, eval.MeanCellPopulation, 100*eval.AloneRate))
	}
	t.flush()

	// The dummies' Achilles heel: a motion-model filter across updates.
	fmt.Println("\nmotion-filter adversary vs dummies (20 updates, walking user):")
	t2 := newTable("dummy style", "mean surviving candidates (of 8)", "true chain alive")
	var survivors []float64
	for _, style := range []struct {
		name    string
		walking bool
	}{{"independent per update", false}, {"random-walk dummies", true}} {
		var series []altpriv.DummyReport
		var idxs []int
		loc := geo.Pt(0.2, 0.2)
		var g *altpriv.DummyGenerator
		if style.walking {
			g, _ = altpriv.NewDummyGenerator(world, 8, 0.005, cfg.seed+2)
		}
		for tick := 0; tick < 20; tick++ {
			loc = world.ClampPoint(geo.Pt(loc.X+0.004, loc.Y+0.002))
			gg := g
			if !style.walking {
				gg, _ = altpriv.NewDummyGenerator(world, 8, 0.01, cfg.seed+uint64(tick)*131)
			}
			rep, idx := gg.Report(1, loc)
			series = append(series, rep)
			idxs = append(idxs, idx)
		}
		surv, alive := altpriv.MotionFilterDummies(series, idxs, 0.015)
		t2.row(style.name, surv, alive)
		survivors = append(survivors, surv)
	}
	t2.flush()
	r.check("dummies hide a snapshot: a uniform pick finds the user less than twice as often as 1/n",
		slices.Max(pickOverPrior) < 2, "pick rate × n %.4g at n = 5, 20", pickOverPrior)
	r.check("a motion filter collapses independent dummies (≤ 2 of 8 left) but not walking ones (8 of 8)",
		survivors[0] <= 2 && survivors[1] == 8, "%.4g survivors", survivors)
	r.check("landmarks give uncontrolled anonymity: some users are alone at |L| = 1000", alone > 0,
		"%.2f%% alone", 100*alone)
}

// expTracking (E13) runs the trajectory-linking adversary against all
// cloaking algorithms plus the incremental (frozen-region) defense.
func expTracking(cfg benchConfig, r *report) {
	p := buildPopulation(cfg.n, mobility.Uniform, cfg.seed, 10)
	const (
		speed = 0.004
		ticks = 40
	)
	fmt.Printf("%d users; tracked user walks %d ticks at speed %.3f, k=40\n\n", cfg.n, ticks, speed)

	uid := uint64(cfg.n + 1)
	start := geo.Pt(0.3, 0.5)
	must(p.pyr.Insert(uid, start))
	p.gi.Upsert(uid, start)

	trajectory := func(c cloak.Cloaker) []track.Step {
		var steps []track.Step
		loc := start
		for i := 0; i < ticks; i++ {
			loc = world.ClampPoint(geo.Pt(loc.X+speed, loc.Y+speed/3))
			p.pyr.Move(uid, loc)
			p.gi.Upsert(uid, loc)
			res := c.Cloak(uid, loc, reqK(40))
			steps = append(steps, track.Step{Region: res.Region, TrueLoc: loc})
		}
		return steps
	}

	t := newTable("cloaker", "mean shrink", "final shrink", "mean guess error", "violations")
	cloakers := []namedCloaker{
		{"naive", func(p population) cloak.Cloaker { return &cloak.Naive{Pop: p.pop} }},
		{"mbr", func(p population) cloak.Cloaker { return &cloak.MBR{Pop: p.pop} }},
		{"quadtree", func(p population) cloak.Cloaker { return &cloak.Quadtree{Pyr: p.pyr} }},
		{"grid L5", func(p population) cloak.Cloaker { return &cloak.Grid{Pyr: p.pyr, Level: 5} }},
		// Incremental reuse keeps the region frozen while the user stays
		// inside the cached cell.
		{"quadtree+incremental", func(p population) cloak.Cloaker {
			return cloak.NewIncremental(&cloak.Quadtree{Pyr: p.pyr}, func(region geo.Rect, req privacy.Requirement) (int, bool) {
				n := p.gi.Count(region)
				return n, n >= req.K
			})
		}},
	}
	var shrink, guessErr []float64 // by cloaker
	violations := 0
	for _, nc := range cloakers {
		rep, err := track.Evaluate(trajectory(nc.make(p)), speed*1.5)
		must(err)
		t.row(nc.name, rep.MeanShrink, rep.FinalShrink, rep.MeanGuessError, rep.ContainmentViolations)
		shrink = append(shrink, rep.MeanShrink)
		guessErr = append(guessErr, rep.MeanGuessError)
		violations += rep.ContainmentViolations
	}
	t.flush()
	r.check("the linking adversary is sound: no containment violation", violations == 0,
		"%d violations", violations)
	r.check("naive regions defeat linking (mean shrink ≥ 0.99) but their center is the user (error < 0.001)",
		shrink[0] >= 0.99 && guessErr[0] < 0.001, "mean shrink %.4g, guess error %.4g", shrink[0], guessErr[0])
	r.check("static grid cells leak at cell transitions (grid L5 mean shrink < 0.9)", shrink[3] < 0.9,
		"mean shrink %.4g", shrink[3])
	r.check("incremental reuse keeps the quadtree's transition leak", shrink[2] == 1 || shrink[4] < 1,
		"mean shrink %.4g (quadtree) and %.4g (incremental)", shrink[2], shrink[4])
}
