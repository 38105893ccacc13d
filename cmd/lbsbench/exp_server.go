package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/stack"
)

// The database-server experiment E17 — the query-side twin of E16. It
// measures the CLIENT-VISIBLE path: every query travels through a real
// TCP DatabaseClient to a live database service, per-query mode paying
// one wire round trip per query and batch mode one MsgBatchQuery frame
// per 64 entries. That is the deployment the paper's shared-execution
// argument is about — the anonymizer forwards whole batches, so the
// framing, syscall and dispatch overhead of a query is exactly what
// batching amortizes.

// serverBenchMix generates one clustered mixed batch, mirroring many
// users querying the same hot neighborhood. Query cloaks are small (half-size
// 0.001–0.005 on the unit world): the common LBS case is a point-ish
// query hidden inside a modest cloak, whose index work is a few
// microseconds — so the per-call wire overhead (framing, two syscalls
// per side, dispatch) is the dominant cost per query, which is exactly
// the cost one batch frame amortizes over 64 entries. Large-cloak
// regimes, where index work dominates instead, are covered by E9.
func serverBenchMix(src *rng.Source, n int) []server.BatchEntry {
	centers := make([]geo.Point, 5)
	for i := range centers {
		centers[i] = geo.Pt(src.Range(0.15, 0.85), src.Range(0.15, 0.85))
	}
	entries := make([]server.BatchEntry, n)
	for i := range entries {
		c := centers[src.Intn(len(centers))]
		p := world.ClampPoint(geo.Pt(c.X+src.Range(-0.08, 0.08), c.Y+src.Range(-0.08, 0.08)))
		r := geo.RectAround(p, 0.001+0.004*src.Float64()).Clip(world)
		switch src.Intn(5) {
		case 0, 1:
			entries[i] = server.BatchEntry{Kind: server.BatchPrivateRange,
				Range: server.PrivateRangeQuery{Region: r, Radius: 0.006 * src.Float64(), Class: "poi"}}
		case 2, 3:
			entries[i] = server.BatchEntry{Kind: server.BatchPublicCount,
				Count: server.PublicRangeCountQuery{Query: r}}
		default:
			entries[i] = server.BatchEntry{Kind: server.BatchPrivateNN,
				NN: server.PrivateNNQuery{Region: r, Class: "poi"}}
		}
	}
	return entries
}

// loadBenchData loads the seeded data set E17 and E20 share into db, a
// server in-process or a database tier over the wire: uniform public
// objects, then one cloak-sized region per Gaussian-placed user.
func loadBenchData(db interface {
	LoadStationary([]server.PublicObject) error
	UpdatePrivate(uint64, geo.Rect) error
}, cfg benchConfig) {
	must(db.LoadStationary(publicObjects(cfg.objs, "poi", cfg.seed+1)))
	src := rng.New(cfg.seed + 7)
	for i, p := range points(cfg.n, mobility.Gaussian, cfg.seed) {
		must(db.UpdatePrivate(uint64(i+1), geo.RectAround(p, 0.005+0.03*src.Float64()).Clip(world)))
	}
}

// expServerBatch measures batch queries through the wire: queries/sec
// for the per-query client baseline and for BatchQuery at worker counts
// 1, 4, 8, at the process's GOMAXPROCS, over identical clustered query
// mixes on identical data.
func expServerBatch(cfg benchConfig, r *report) {
	const (
		rounds     = 400 // batches per measured pass — long enough to damp scheduler noise
		batchSize  = 64
		warmRounds = 100 // untimed pass that warms caches, pools and the TCP path
		passes     = 3   // measured passes; the best one is recorded
	)
	fmt.Printf("%d private users, %d public objects, best of %d × %d rounds of %d-entry batches over TCP, GOMAXPROCS=%d\n\n",
		cfg.n, cfg.objs, passes, rounds, batchSize, runtime.GOMAXPROCS(0))

	type series struct {
		mode    string
		workers int
	}
	grid := []series{
		{"perquery", 1},
		{"batch", 1},
		{"batch", 4},
		{"batch", 8},
	}
	t := newTable("mode", "workers", "queries/sec", "memo hits %", "vs perquery")
	var base, batch1 float64 // the perquery reference, measured first; batch at 1 worker
	for _, sr := range grid {
		s, err := server.New(server.Config{World: world, QueryWorkers: sr.workers})
		must(err)
		loadBenchData(s, cfg)
		svc, err := stack.ServeDatabase("127.0.0.1:0", s, stack.Ops{})
		must(err)
		dc, err := protocol.DialDatabase(svc.Addr())
		must(err)
		src := rng.New(cfg.seed + 99)
		batches := make([][]server.BatchEntry, rounds)
		for i := range batches {
			batches[i] = serverBenchMix(src, batchSize)
		}
		runPass := func(bs [][]server.BatchEntry) (time.Duration, int) {
			shared := 0
			t0 := time.Now()
			for _, entries := range bs {
				if sr.mode == "perquery" {
					for _, e := range entries {
						var err error
						switch e.Kind {
						case server.BatchPrivateRange:
							_, err = dc.PrivateRange(e.Range)
						case server.BatchPrivateNN:
							_, err = dc.PrivateNN(e.NN)
						case server.BatchPublicCount:
							_, err = dc.PublicCount(e.Count.Query)
						}
						must(err)
					}
				} else {
					res, err := dc.BatchQuery(entries)
					must(err)
					shared += res.SharedHits
				}
			}
			return time.Since(t0), shared
		}
		runPass(batches[:warmRounds])
		best, sharedHits := runPass(batches)
		for p := 1; p < passes; p++ {
			if d, _ := runPass(batches); d < best {
				best = d
			}
		}
		dc.Close()
		svc.Close()
		entriesRun := rounds * batchSize
		qps := float64(entriesRun) / best.Seconds()
		rel := "1.00x"
		if sr.mode == "perquery" {
			base = qps
		} else {
			rel = fmt.Sprintf("%.2fx", qps/base)
		}
		if sr.mode == "batch" && sr.workers == 1 {
			batch1 = qps
		}
		t.row(sr.mode, sr.workers, qps, 100*float64(sharedHits)/float64(entriesRun), rel)
	}
	t.flush()
	fmt.Println("\nnote: a batch frame pays the wire round trip once per 64 queries; answers are bit-identical to the per-query path (differential suites).")
	r.timing("a 64-entry batch frame (1 worker) at least doubles per-query throughput", batch1 >= 2*base,
		"%.2fx", batch1/base)
}
