package main

import (
	"fmt"
	"log"
	"slices"
	"strings"
	"time"

	"repro/internal/anonymizer"
	"repro/internal/cloak"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/mobility"
	"repro/internal/obs"
	"repro/internal/privacy"
	"repro/internal/protocol"
	"repro/internal/server"
	"repro/internal/stack"
)

// expIncremental regenerates the Section 5.3 incremental-evaluation study:
// a random-waypoint population streams updates with and without
// incremental cloak maintenance, for a cheap space-dependent cloaker (the
// quadtree, through the anonymizer) and an expensive data-dependent one
// (naive expansion, which the anonymizer does not offer, over its own grid
// of exact positions).
func expIncremental(cfg benchConfig, r *report) {
	const ticks = 20
	fmt.Printf("%d users, random waypoint, %d ticks of updates, k=50\n\n", cfg.n, ticks)
	t := newTable("algorithm", "mode", "reused %", "updates/sec", "regions forwarded")
	var reusedPct, naiveRate []float64 // incremental rows; naive's recompute and incremental rows
	recomputeForwards := 0
	for _, alg := range []string{"quadtree", "naive"} {
		for _, inc := range []bool{false, true} {
			sim, err := mobility.NewWaypointSim(mobility.WaypointConfig{
				Population: mobility.PopulationSpec{
					N: cfg.n, World: world, Dist: mobility.Uniform, Seed: cfg.seed,
				},
				MinSpeed: 0.0005, MaxSpeed: 0.005,
			})
			must(err)
			update := e8Updater(alg, inc, sim.Users())
			reused, forwarded := 0, 0
			stream := func() {
				for _, u := range sim.Users() {
					res := update(u.ID, u.Loc)
					if res.Reused {
						reused++
					} else {
						forwarded++ // a reused region is not sent again
					}
				}
			}
			stream()
			reused, forwarded = 0, 0 // count the timed steady state only
			t0 := time.Now()
			for tick := 0; tick < ticks; tick++ {
				sim.Tick()
				stream()
			}
			elapsed := time.Since(t0)
			streamed := cfg.n * ticks
			mode := "recompute"
			if inc {
				mode = "incremental"
				reusedPct = append(reusedPct, 100*float64(reused)/float64(streamed))
			} else if reused == 0 {
				recomputeForwards += forwarded
			}
			rate := float64(streamed) / elapsed.Seconds()
			t.row(alg, mode, 100*float64(reused)/float64(streamed), rate, forwarded)
			if alg == "naive" {
				naiveRate = append(naiveRate, rate)
			}
		}
	}
	t.flush()
	r.check("recompute reuses nothing and forwards every update", recomputeForwards == 2*cfg.n*ticks,
		"%d of %d updates forwarded without reuse", recomputeForwards, 2*cfg.n*ticks)
	r.check("incremental evaluation reuses at least three regions in four for every algorithm",
		slices.Min(reusedPct) >= 75, "reused %% %.4g (quadtree / naive)", reusedPct)
	r.timing("naive: incremental evaluation at least doubles update throughput", naiveRate[1] >= 2*naiveRate[0],
		"%.4g against %.4g updates/s (%.1fx)", naiveRate[1], naiveRate[0], naiveRate[1]/naiveRate[0])
}

// e8Updater returns one E8 row's update path over the given users. The
// quadtree row registers them with an anonymizer and updates through it.
// The naive row keeps their exact positions in a 64×64 grid, moves a user
// there and cloaks her with cloak.Naive, wrapped in cloak.Incremental (with
// the anonymizer's MaxSlack of 8) when inc.
func e8Updater(alg string, inc bool, users []mobility.User) func(id uint64, loc geo.Point) cloak.Result {
	if alg == "quadtree" {
		anon, err := anonymizer.New(anonymizer.Config{World: world, Incremental: inc})
		must(err)
		prof := privacy.Constant(reqK(50))
		for _, u := range users {
			must(anon.Register(u.ID, prof))
		}
		return func(id uint64, loc geo.Point) cloak.Result {
			res, err := anon.Update(id, loc)
			must(err)
			return res
		}
	}
	pop, err := grid.New(world, 64, 64)
	must(err)
	var c cloak.Cloaker = &cloak.Naive{Pop: cloak.GridPopulation{Index: pop}}
	if inc {
		ic := cloak.NewIncremental(c, func(region geo.Rect, req privacy.Requirement) (int, bool) {
			n := pop.Count(region)
			return n, n >= req.K
		})
		ic.MaxSlack = 8
		c = ic
	}
	return func(id uint64, loc geo.Point) cloak.Result {
		pop.Upsert(id, loc)
		return c.Cloak(id, loc, reqK(50))
	}
}

// expShared regenerates the Section 5.3 shared-execution study: batch
// cloaking of a full population in one pass vs per-user cloaking, plus the
// shared continuous-query engine under update load.
func expShared(cfg benchConfig, r *report) {
	// A pyramid whose bottom level matches the anonymization granularity is
	// what makes sharing productive: with 2^6×2^6 = 4096 bottom cells many
	// users in a clustered population fall into the same cell and reuse one
	// descent.
	p := buildPopulation(cfg.n, mobility.Gaussian, cfg.seed, 7)
	fmt.Printf("%d users (gaussian clusters), pyramid height 7\n\n", cfg.n)

	t := newTable("k", "per-user time", "batch time", "shared hits %", "distinct regions")
	var hitPct, distinctN []float64
	for _, k := range []int{10, 50, 200} {
		q := &cloak.Quadtree{Pyr: p.pyr}
		reqs := make([]cloak.Request, len(p.pts))
		for i, loc := range p.pts {
			reqs[i] = cloak.Request{ID: uint64(i + 1), Loc: loc, Req: reqK(k)}
		}
		t0 := time.Now()
		for _, rq := range reqs {
			q.Cloak(rq.ID, rq.Loc, rq.Req)
		}
		perUser := time.Since(t0)

		b := &cloak.Batch{Pyr: p.pyr, Inner: q}
		t0 = time.Now()
		results, hits := b.CloakAll(reqs, 1)
		batch := time.Since(t0)

		distinct := map[geo.Rect]bool{}
		for _, res := range results {
			distinct[res.Region] = true
		}
		t.row(k, perUser, batch,
			100*float64(hits)/float64(len(reqs)), len(distinct))
		hitPct = append(hitPct, 100*float64(hits)/float64(len(reqs)))
		distinctN = append(distinctN, float64(len(distinct)))
	}
	t.flush()
	r.check("batch cloaking shares descents and leaves at most one region per four users",
		slices.Min(hitPct) > 0 && 4*slices.Max(distinctN) <= float64(cfg.n),
		"shared hits %% %.4g; %v distinct regions for %d users", hitPct, distinctN, cfg.n)

	// Continuous-query shared execution: maintained answers vs re-running
	// every query on every update.
	fmt.Println("\ncontinuous count queries under update load:")
	srv, err := server.New(server.Config{World: world})
	must(err)
	standing := make([]geo.Rect, 100)
	for i := range standing {
		standing[i] = geo.RectAround(p.pts[i*7%len(p.pts)], 0.05).Clip(world)
		_, err := srv.RegisterContinuousCount(standing[i])
		must(err)
	}
	q := &cloak.Quadtree{Pyr: p.pyr}
	regions := make([]geo.Rect, len(p.pts))
	for i, loc := range p.pts {
		regions[i] = q.Cloak(uint64(i+1), loc, reqK(50)).Region
	}
	const updates = 20000
	t0 := time.Now()
	for i := 0; i < updates; i++ {
		uid := uint64(i%len(p.pts)) + 1
		must(srv.UpdatePrivate(uid, regions[uid-1]))
	}
	incElapsed := time.Since(t0)

	// Naive alternative: run every standing query from scratch after each
	// update batch (measured per 1000 updates to keep the run short).
	t0 = time.Now()
	const naiveRounds = 10
	for round := 0; round < naiveRounds; round++ {
		for _, query := range standing {
			_, err := srv.PublicRangeCount(server.PublicRangeCountQuery{Query: query})
			must(err)
		}
	}
	naivePerRound := time.Since(t0) / naiveRounds

	t2 := newTable("approach", "cost")
	t2.row(fmt.Sprintf("incremental: %d updates × %d standing queries", updates, len(standing)),
		fmt.Sprintf("%v total (%.2fµs/update)", incElapsed.Round(time.Millisecond),
			float64(incElapsed.Microseconds())/updates))
	t2.row("re-evaluate all queries once", naivePerRound)
	t2.flush()
	perUpdate := incElapsed / updates
	r.timing("an update costs under 1/100 of one re-evaluation of the standing queries",
		100*perUpdate < naivePerRound, "%v against %v", perUpdate, naivePerRound)
}

// expEndToEnd regenerates the Figure 1 architecture as a live TCP
// deployment and measures end-to-end latencies of each flow, then asks the
// daemons for their own request histograms (MsgMetrics) so the client and
// server views of the same latencies sit side by side.
func expEndToEnd(cfg benchConfig, _ *report) {
	st, err := stack.Boot(stack.Topology{})
	must(err)
	defer st.Close()
	user, err := protocol.DialAnonymizer(st.AnonAddr())
	must(err)
	defer user.Close()
	admin, err := protocol.DialDatabase(st.DBAddr())
	must(err)
	defer admin.Close()

	// Load data.
	n := min(cfg.n, 5000) // keep the TCP experiment snappy
	must(admin.LoadStationary(publicObjects(2000, "gas", cfg.seed+1)))
	userPts := points(n, mobility.Uniform, cfg.seed)
	prof := privacy.Constant(reqK(25))
	for i, p := range userPts {
		must(user.Register(uint64(i+1), prof))
		_, err := user.Update(uint64(i+1), p)
		must(err)
	}

	measure := func(name string, iters int, f func(i int) error) []interface{} {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			if err := f(i); err != nil {
				log.Fatalf("lbsbench: %s: %v", name, err)
			}
		}
		per := time.Since(t0) / time.Duration(iters)
		return []interface{}{name, iters, per, float64(time.Second) / float64(per)}
	}

	t := newTable("flow", "iters", "latency", "ops/sec")
	t.row(measure("location update (user→anon→db)", 2000, func(i int) error {
		id := uint64(i%n) + 1
		_, err := user.Update(id, userPts[id-1])
		return err
	})...)
	t.row(measure("private NN (cloak+query+refine)", 500, func(i int) error {
		id := uint64(i%n) + 1
		res, err := user.CloakQuery(id, userPts[id-1])
		if err != nil {
			return err
		}
		nn, err := admin.PrivateNN(server.PrivateNNQuery{Region: res.Region, Class: "gas"})
		if err != nil {
			return err
		}
		_, _ = server.RefineNN(userPts[id-1], nn.Candidates)
		return nil
	})...)
	t.row(measure("public count (admin)", 500, func(i int) error {
		_, err := admin.PublicCount(geo.R(0.25, 0.25, 0.75, 0.75))
		return err
	})...)
	t.row(measure("public NN / e-coupon (admin)", 200, func(i int) error {
		_, err := admin.PublicNN(server.PublicNNQuery{
			From: userPts[i%n], Samples: 500, Seed: uint64(i + 1),
		})
		return err
	})...)
	t.flush()
	fmt.Printf("\nthree-tier deployment on loopback TCP: anonymizer %s, database %s\n",
		st.AnonAddr(), st.DBAddr())

	// The daemons' own per-message-type request histograms, fetched over the
	// wire — the server-side complement of the client-side table above.
	t2 := newTable("tier", "message", "count", "p50", "p95", "p99")
	for _, tier := range []struct {
		name  string
		fetch func() ([]obs.MetricSnapshot, error)
	}{
		{"anonymizer", user.Metrics},
		{"database", admin.Metrics},
	} {
		series, err := tier.fetch()
		if err != nil {
			log.Fatalf("lbsbench: %s metrics: %v", tier.name, err)
		}
		for _, s := range series {
			if s.Name != "proto_request_seconds" || s.Hist.Count() == 0 {
				continue
			}
			msg := ""
			for _, l := range s.Labels {
				if l.Key == "type" {
					msg = l.Value
				}
			}
			if strings.HasPrefix(msg, "metrics") {
				continue // the fetch itself
			}
			t2.row(tier.name, msg, s.Hist.Count(),
				s.Hist.QuantileDuration(50).Round(time.Microsecond),
				s.Hist.QuantileDuration(95).Round(time.Microsecond),
				s.Hist.QuantileDuration(99).Round(time.Microsecond))
		}
	}
	fmt.Println("\ndaemon-side request latency (proto_request_seconds):")
	t2.flush()
}
