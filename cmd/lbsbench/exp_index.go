package main

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/geo"
	"repro/internal/rng"
	"repro/internal/server"
)

// expRegionIndex (E15) measures the server's region index against the full
// scan for range-shaped public queries across selectivities, and checks
// that both give the same answers.
func expRegionIndex(cfg benchConfig, r *report) {
	srv, _ := buildPrivateServer(cfg, 50)
	fmt.Printf("%d cloaked users (k=50); 200 queries per row\n\n", cfg.n)
	t := newTable("query side", "mean matches", "indexed", "full scan", "speedup")
	src := rng.New(cfg.seed + 500)
	run := func(count func(server.PublicRangeCountQuery) (server.PublicRangeCountResult, error),
		queries []server.PublicRangeCountQuery) (out []server.PublicRangeCountResult, per time.Duration) {
		t0 := time.Now()
		for _, q := range queries {
			res, err := count(q)
			must(err)
			out = append(out, res)
		}
		return out, time.Since(t0) / time.Duration(len(queries))
	}
	var speedup []float64
	differ := 0
	for _, side := range []float64{0.02, 0.05, 0.15, 0.4} {
		queries := make([]server.PublicRangeCountQuery, 200)
		for i := range queries {
			c := geo.Pt(src.Range(side/2, 1-side/2), src.Range(side/2, 1-side/2))
			queries[i] = server.PublicRangeCountQuery{Query: geo.RectAround(c, side/2)}
		}
		indexed, perIndexed := run(srv.PublicRangeCount, queries)
		scanned, perScan := run(srv.PublicRangeCountScan, queries)
		matches := 0
		for i := range queries {
			matches += indexed[i].NaiveCount
			if !reflect.DeepEqual(indexed[i], scanned[i]) {
				differ++
			}
		}
		speedup = append(speedup, float64(perScan)/float64(perIndexed))
		t.row(side, float64(matches)/float64(len(queries)), perIndexed, perScan, fmt.Sprintf("%.1fx", speedup[len(speedup)-1]))
	}
	t.flush()
	r.check("indexed answers equal the full scan's", differ == 0, "%d of 800 answers differ", differ)
	r.timing("the index is at least 4x faster than the scan at query side 0.02", speedup[0] >= 4,
		"%.1fx (%.1f from side 0.02 to 0.4)", speedup[0], speedup)
}
