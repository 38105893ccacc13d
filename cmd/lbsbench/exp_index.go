package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cloak"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/rng"
	"repro/internal/server"
)

// expRegionIndex (E15) measures the server's region index against the full
// scan for range-shaped public queries across selectivities, and the batch
// anonymizer path against per-user updates — the two production
// optimizations layered on top of the paper's design.
func expRegionIndex(cfg benchConfig) {
	// Part 1: indexed public counts vs full scan.
	p := buildPopulation(cfg.n, mobility.Uniform, cfg.seed)
	srv, err := server.New(server.Config{World: world})
	if err != nil {
		log.Fatalf("lbsbench: %v", err)
	}
	q := &cloak.Quadtree{Pyr: p.pyr}
	for i, loc := range p.pts {
		res := q.Cloak(uint64(i+1), loc, reqK(50))
		if err := srv.UpdatePrivate(uint64(i+1), res.Region); err != nil {
			log.Fatalf("lbsbench: %v", err)
		}
	}
	fmt.Printf("%d cloaked users (k=50); 200 queries per row\n\n", cfg.n)
	t := newTable("query side", "mean matches", "indexed", "full scan", "speedup")
	src := rng.New(cfg.seed + 500)
	for _, side := range []float64{0.02, 0.05, 0.15, 0.4} {
		queries := make([]server.PublicRangeCountQuery, 200)
		for i := range queries {
			c := geo.Pt(src.Range(side/2, 1-side/2), src.Range(side/2, 1-side/2))
			queries[i] = server.PublicRangeCountQuery{Query: geo.RectAround(c, side/2)}
		}
		var matches int
		t0 := time.Now()
		for _, qq := range queries {
			res, err := srv.PublicRangeCount(qq)
			if err != nil {
				log.Fatalf("lbsbench: %v", err)
			}
			matches += res.NaiveCount
		}
		indexed := time.Since(t0) / time.Duration(len(queries))

		t0 = time.Now()
		for _, qq := range queries {
			if _, err := srv.PublicRangeCountScan(qq); err != nil {
				log.Fatalf("lbsbench: %v", err)
			}
		}
		scan := time.Since(t0) / time.Duration(len(queries))
		t.row(side, float64(matches)/float64(len(queries)), indexed, scan,
			fmt.Sprintf("%.1fx", float64(scan)/float64(indexed)))
	}
	t.flush()

	fmt.Println("\nreading: the index wins big on selective queries and converges to")
	fmt.Println("the scan as the query approaches the whole world (every region must")
	fmt.Println("be touched either way); answers are equivalence-tested in the suite.")
}
