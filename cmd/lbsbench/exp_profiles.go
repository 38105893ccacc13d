package main

import (
	"fmt"
	"slices"

	"repro/internal/cloak"
	"repro/internal/mobility"
	"repro/internal/privacy"
)

func reqK(k int) privacy.Requirement { return privacy.Requirement{K: k} }

// expProfiles regenerates Figure 2: the example privacy profile resolved
// across the day, showing which requirement applies at each hour and the
// resulting timeline segments.
func expProfiles(cfg benchConfig, _ *report) {
	p := privacy.PaperExample()

	fmt.Println("profile entries (paper example):")
	t := newTable("time window", "k", "Amin", "Amax")
	for _, e := range p.Entries() {
		t.row(fmt.Sprintf("%02d:%02d-%02d:%02d", e.From/60, e.From%60, e.To/60, e.To%60),
			e.Req.K, e.Req.MinArea, e.Req.EffectiveMaxArea())
	}
	t.flush()

	fmt.Println("\nresolved requirement by hour:")
	t = newTable("hour", "k", "Amin", "Amax")
	for hour := 0; hour < 24; hour += 3 {
		req, err := p.AtMinute(hour * 60)
		if err != nil {
			t.row(fmt.Sprintf("%02d:00", hour), "-", "-", "-")
			continue
		}
		t.row(fmt.Sprintf("%02d:00", hour), req.K, req.MinArea, req.EffectiveMaxArea())
	}
	t.flush()

	fmt.Println("\ntimeline segments (maximal runs of one requirement):")
	t = newTable("from", "to", "k", "covered")
	for _, seg := range p.Timeline() {
		t.row(fmt.Sprintf("%02d:%02d", seg.From/60, seg.From%60),
			fmt.Sprintf("%02d:%02d", seg.To/60, seg.To%60), seg.Req.K, seg.OK)
	}
	t.flush()

	strict, _ := p.Strictest()
	fmt.Printf("\nstrictest requirement across the day: %v\n", strict)
}

// expBestEffort (E10) quantifies best-effort cloaking under contradictory
// profiles: the satisfaction rate of each constraint as Amax tightens
// against a fixed k.
func expBestEffort(cfg benchConfig, r *report) {
	p := buildPopulation(cfg.n, mobility.Uniform, cfg.seed, 10)
	q := &cloak.Quadtree{Pyr: p.pyr}

	const k = 100
	// Area needed for k=100 in a uniform population of n over the unit
	// square is ≈ k/n; sweep Amax through that threshold.
	needed := float64(k) / float64(cfg.n)
	fmt.Printf("population %d, k=%d (area needed ≈ %.4g)\n\n", cfg.n, k, needed)

	t := newTable("Amax", "k ok %", "Amax ok %", "both %", "mean area")
	var kOKs, aOKs []float64
	for _, mult := range []float64{0.1, 0.5, 1, 2, 8, 32} {
		amax := needed * mult
		req := privacy.Requirement{K: k, MaxArea: amax}
		var kOK, aOK, both int
		var areaSum float64
		const samples = 500
		stride := len(p.pts)/samples + 1
		count := 0
		for i := 0; i < len(p.pts); i += stride {
			res := q.Cloak(uint64(i+1), p.pts[i], req)
			if res.SatisfiedK {
				kOK++
			}
			if res.SatisfiedMaxArea {
				aOK++
			}
			if res.SatisfiedK && res.SatisfiedMaxArea {
				both++
			}
			areaSum += res.Region.Area()
			count++
		}
		t.row(fmt.Sprintf("%.1fx", mult),
			100*float64(kOK)/float64(count),
			100*float64(aOK)/float64(count),
			100*float64(both)/float64(count),
			areaSum/float64(count))
		kOKs = append(kOKs, 100*float64(kOK)/float64(count))
		aOKs = append(aOKs, 100*float64(aOK)/float64(count))
	}
	t.flush()
	r.check("k is met on every request at every Amax (the hard minimum)", slices.Min(kOKs) == 100,
		"k ok %% %.4g", kOKs)
	r.check("Amax gives way at 0.1× the needed area and holds at 32×", aOKs[0] == 0 && aOKs[5] == 100,
		"Amax ok %% %.4g", aOKs)
}
