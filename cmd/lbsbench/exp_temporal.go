package main

import (
	"fmt"
	"slices"

	"repro/internal/cloak"
	"repro/internal/mobility"
)

// expTemporal (E14) studies spatio-temporal cloaking: the latency/area
// trade-off against purely spatial k-anonymity. Spatial cloaking answers
// instantly with a region big enough to hold k users *now*; temporal
// cloaking answers with a small fixed cell but delays the answer until k
// users have *visited* the cell.
func expTemporal(cfg benchConfig, r *report) {
	const (
		ticks    = 400
		maxDelay = 200
		level    = 5 // 32×32 cells
	)
	for _, dist := range []mobility.Distribution{mobility.Uniform, mobility.Gaussian} {
		sim, err := mobility.NewWaypointSim(mobility.WaypointConfig{
			Population: mobility.PopulationSpec{
				N: cfg.n, World: world, Dist: dist, Seed: cfg.seed,
			},
			MinSpeed: 0.002, MaxSpeed: 0.01,
		})
		must(err)
		p := buildPopulation(cfg.n, dist, cfg.seed, 10)
		cellArea := p.pyr.CellArea(level)

		fmt.Printf("\npopulation: %d users (%v), level-%d cells (area %.5f), %d ticks\n",
			cfg.n, dist, level, cellArea, ticks)
		t := newTable("k", "released %", "satisfied %", "mean delay (ticks)", "area vs spatial")
		var satisfiedPct, delays, areaRatio []float64
		for _, k := range []int{10, 50, 200} {
			// Fresh temporal cloaker per k to keep pending queues separate.
			tc, err := cloak.NewTemporal(p.pyr, level, maxDelay)
			must(err)
			// Every 20th user requests temporal cloaking with this k; the
			// rest only feed visit history.
			requested := 0
			released, satisfied := 0, 0
			var delaySum int64
			for tick := 0; tick < ticks; tick++ {
				sim.Tick()
				for i, u := range sim.Users() {
					kk := 1
					if i%20 == 0 && tick%25 == 0 {
						kk = k
						requested++
					}
					tc.Observe(u.ID, u.Loc, kk)
				}
				for _, rel := range tc.Tick() {
					released++
					if rel.Satisfied {
						satisfied++
						delaySum += rel.To - rel.From
					}
				}
			}
			meanDelay := float64(delaySum) / max(float64(satisfied), 1)
			// Spatial comparison: quadtree region area for the same k.
			q := &cloak.Quadtree{Pyr: p.pyr}
			var spatialArea float64
			for i := 0; i < 100; i++ {
				res := q.Cloak(uint64(i*31+1), p.pts[i*31%len(p.pts)], reqK(k))
				spatialArea += res.Region.Area()
			}
			spatialArea /= 100
			satisfiedPct = append(satisfiedPct, 100*float64(satisfied)/max(float64(released), 1))
			areaRatio = append(areaRatio, cellArea/spatialArea)
			t.row(k,
				100*float64(released)/max(float64(requested), 1),
				satisfiedPct[len(satisfiedPct)-1],
				meanDelay,
				fmt.Sprintf("%.3fx", areaRatio[len(areaRatio)-1]))
			if satisfied > 0 {
				delays = append(delays, meanDelay)
			}
		}
		t.flush()
		r.check(fmt.Sprintf("%v: the fixed cell shrinks against the equal-k spatial region as k grows", dist),
			falling(areaRatio), "cell / spatial area %.4g at k = 10, 50, 200", areaRatio)
		r.check(fmt.Sprintf("%v: satisfaction never rises with k, and satisfied releases wait longer", dist),
			falling(satisfiedPct) && slices.IsSorted(delays), "satisfied %% %.4g; mean delay %.4g ticks", satisfiedPct, delays)
	}
}
