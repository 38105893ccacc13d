// Command lbsload drives a running three-tier deployment with a synthetic
// closed-loop workload and reports throughput and latency percentiles for
// each flow — the capacity-check tool for the networked services.
//
// It either targets an existing deployment (-anon / -db addresses) or, with
// -selfhost, spins the whole stack up in-process on loopback first. At the
// end of the run it asks each daemon for its metric snapshot (MsgMetrics)
// and prints the daemons' own histogram percentiles next to the
// client-side numbers; peers running uninstrumented builds reject the
// message and the tables are skipped.
//
// Usage:
//
//	lbsload -selfhost -users 2000 -workers 8 -duration 10s
//	lbsload -anon localhost:7071 -db localhost:7070 -users 5000 -duration 30s
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cloak"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/obs"
	"repro/internal/privacy"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/stack"
	"repro/internal/stats"
	"repro/internal/trace"
)

// printLiveMetrics prints a percentile table for every histogram with
// observations in a daemon's wire snapshot. *_seconds histograms format as
// durations; size/area/ratio histograms print raw quantiles.
func printLiveMetrics(name string, series []obs.MetricSnapshot, err error) {
	if err != nil {
		log.Printf("lbsload: %s metrics unavailable (uninstrumented peer?): %v", name, err)
		return
	}
	fmt.Printf("\n%s histograms (from the daemon's own registry):\n", name)
	any := false
	for _, s := range series {
		if s.Kind != obs.KindHistogram || s.Hist.Count() == 0 {
			continue
		}
		any = true
		label := s.Name
		if len(s.Labels) > 0 {
			parts := make([]string, len(s.Labels))
			for i, l := range s.Labels {
				parts[i] = l.Key + "=" + l.Value
			}
			label += "{" + strings.Join(parts, ",") + "}"
		}
		if strings.HasSuffix(s.Name, "_seconds") {
			line := s.Hist.Summary()
			// A captured trace exemplifying the slow tail, when one exists:
			// paste the id into the merged timeline to see where it went.
			if ex := s.Hist.ExemplarNear(99); ex != 0 {
				line += fmt.Sprintf(" p99-trace=%016x", ex)
			}
			fmt.Printf("  %-44s %s\n", label, line)
		} else {
			fmt.Printf("  %-44s n=%d mean=%.4g p50=%.4g p95=%.4g p99=%.4g\n",
				label, s.Hist.Count(), s.Hist.Mean(),
				s.Hist.Quantile(50), s.Hist.Quantile(95), s.Hist.Quantile(99))
		}
	}
	if !any {
		fmt.Printf("  (no observations)\n")
	}
}

// safetyCounters reads the two anonymizer counters the -check gate is
// judged on: spill-queue evictions (acked updates that died) and cloaks
// that missed their k requirement.
func safetyCounters(anonAddr string) (drops, kMissed float64, err error) {
	ac, err := protocol.DialAnonymizer(anonAddr, protocol.WithCallTimeout(5*time.Second))
	if err != nil {
		return 0, 0, err
	}
	defer ac.Close()
	series, err := ac.Metrics()
	if err != nil {
		return 0, 0, err
	}
	for _, s := range series {
		if s.Kind != obs.KindCounter {
			continue
		}
		switch s.Name {
		case "anon_forward_queue_drops_total":
			drops = s.Value
		case "anon_cloak_k_missed_total":
			kMissed = s.Value
		}
	}
	return drops, kMissed, nil
}

// spanCtx wraps the root span of one logical request in a context, so
// every client call under it joins the same trace. With tracing off (nil
// tracer, or this request not sampled) the span is inert and the context
// is a plain Background.
func spanCtx(root trace.Span) (context.Context, trace.Span) {
	ctx := context.Background()
	if root.Recording() {
		ctx = trace.NewContext(ctx, root.Context())
	}
	return ctx, root
}

func main() {
	anonAddr := flag.String("anon", "localhost:7071", "anonymizer address")
	dbAddr := flag.String("db", "localhost:7070", "database address")
	selfhost := flag.Bool("selfhost", false, "start an in-process stack on loopback and load it")
	users := flag.Int("users", 2000, "registered mobile users")
	objs := flag.Int("objs", 2000, "public objects")
	k := flag.Int("k", 25, "anonymity level")
	workers := flag.Int("workers", 4, "concurrent closed-loop workers per flow")
	duration := flag.Duration("duration", 10*time.Second, "measurement duration")
	queryPct := flag.Int("query-pct", 20, "percent of user operations that are NN queries (rest are updates)")
	batch := flag.Int("batch", 1, "locations per update message (BatchUpdate when > 1)")
	queryBatch := flag.Int("query-batch", 1, "admin queries per database message (shared-execution BatchQuery when > 1)")
	routerShards := flag.Int("router", 0, "selfhost: boot this many lbsd shards behind a routing tier and load that as the database (0 = single lbsd)")
	seed := flag.Uint64("seed", 1, "workload seed")
	callTimeout := flag.Duration("call-timeout", 5*time.Second, "per-call deadline on every client connection")
	faultPlan := flag.String("fault-plan", "", `inject faults on the load generator's connections, e.g. "1=r2:drop;*=w1:delay:5ms" (see faults.ParsePlan)`)
	traceOn := flag.Bool("trace", false, "mint a trace per logical request, pull the daemons' span rings at the end, and write one merged Chrome/Perfetto timeline")
	traceSample := flag.Float64("trace-sample", 1, "with -trace: fraction of requests to trace")
	traceOut := flag.String("trace-out", "trace.json", "with -trace: merged timeline output file")
	check := flag.Bool("check", true, "gate the run on safety invariants (zero lost updates, zero post-seed k violations) and exit 1 on violation")
	flag.Parse()

	world := stack.World

	// All load-generator connections share one metrics registry, so the
	// run's retries/timeouts/breaker trips are visible in the summary.
	cliReg := obs.NewRegistry()
	cliOpts := []protocol.DialOption{
		protocol.WithCallTimeout(*callTimeout),
		protocol.WithClientMetrics(cliReg),
	}
	var tracer *trace.Tracer
	if *traceOn {
		tracer = trace.New(trace.Config{Process: "client", Sample: *traceSample})
		cliOpts = append(cliOpts, protocol.WithClientTracing(tracer))
	}
	if *faultPlan != "" {
		plan, err := faults.ParsePlan(*faultPlan)
		if err != nil {
			log.Fatalf("lbsload: -fault-plan: %v", err)
		}
		// One shared dialer so connection indices count across all client
		// connections, in dial order; the resilience counters printed at the
		// end show how the client tier absorbed the injected faults.
		cliOpts = append(cliOpts, protocol.WithDialer(faults.Dialer(plan)))
	}

	if *selfhost {
		// With -trace the self-hosted daemons each get a tracer of their
		// own, exactly as the real binaries would with -trace-sample; the
		// rings are still pulled over the wire, so the merge path below is
		// identical in both modes.
		st, err := stack.Boot(stack.Topology{Shards: *routerShards, Trace: *traceOn})
		if err != nil {
			log.Fatalf("lbsload: %v", err)
		}
		defer st.Close()
		*anonAddr, *dbAddr = st.AnonAddr(), st.DBAddr()
		tier := "single lbsd"
		if *routerShards > 0 {
			tier = fmt.Sprintf("router over %d lbsd shards", *routerShards)
		}
		log.Printf("lbsload: self-hosted stack at anon=%s db=%s (%s, the daemons' defaults)", *anonAddr, *dbAddr, tier)
	}

	// Seed the deployment: public objects + registered users.
	setup, err := protocol.DialDatabase(*dbAddr, cliOpts...)
	if err != nil {
		log.Fatalf("lbsload: dial db: %v", err)
	}
	defer setup.Close()
	objPts, err := mobility.GeneratePoints(mobility.PopulationSpec{
		N: *objs, World: world, Dist: mobility.Uniform, Seed: *seed + 1,
	})
	if err != nil {
		log.Fatalf("lbsload: %v", err)
	}
	publicObjs := make([]server.PublicObject, len(objPts))
	for i, p := range objPts {
		publicObjs[i] = server.PublicObject{ID: uint64(i + 1), Class: "poi", Loc: p}
	}
	if err := setup.LoadStationary(publicObjs); err != nil {
		log.Fatalf("lbsload: load objects: %v", err)
	}

	userPts, err := mobility.GeneratePoints(mobility.PopulationSpec{
		N: *users, World: world, Dist: mobility.Gaussian, Seed: *seed,
	})
	if err != nil {
		log.Fatalf("lbsload: %v", err)
	}
	reg, err := protocol.DialAnonymizer(*anonAddr, cliOpts...)
	if err != nil {
		log.Fatalf("lbsload: dial anonymizer: %v", err)
	}
	prof := privacy.Constant(privacy.Requirement{K: *k})
	t0 := time.Now()
	for i, p := range userPts {
		id := uint64(i + 1)
		if err := reg.Register(id, prof); err != nil {
			log.Fatalf("lbsload: register %d: %v", id, err)
		}
		if _, err := reg.Update(id, p); err != nil {
			log.Fatalf("lbsload: seed update %d: %v", id, err)
		}
	}
	reg.Close()
	log.Printf("lbsload: seeded %d users, %d objects in %v", *users, *objs,
		time.Since(t0).Round(time.Millisecond))

	// Baselines for the -check gate, taken after seeding: a fresh city's
	// first cloaks cannot find k neighbors, so seed-phase k misses are
	// warmup, not violations.
	var baseDrops, baseKMissed float64
	checkArmed := false
	if *check {
		var cerr error
		baseDrops, baseKMissed, cerr = safetyCounters(*anonAddr)
		if cerr != nil {
			log.Printf("lbsload: -check disabled, anonymizer metrics unavailable (uninstrumented peer?): %v", cerr)
		} else {
			checkArmed = true
		}
	}

	// Closed-loop user workers (updates + private NN queries) and one
	// admin worker (counts + public NN).
	var (
		stop      atomic.Bool
		wg        sync.WaitGroup
		mu        sync.Mutex
		updateLat stats.Latencies
		queryLat  stats.Latencies
		adminLat  stats.Latencies
		errCount  atomic.Uint64
		opCount   atomic.Uint64
	)

	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := protocol.DialAnonymizer(*anonAddr, cliOpts...)
			if err != nil {
				log.Printf("lbsload: worker %d: %v", w, err)
				return
			}
			defer conn.Close()
			db, err := protocol.DialDatabase(*dbAddr, cliOpts...)
			if err != nil {
				log.Printf("lbsload: worker %d: %v", w, err)
				return
			}
			defer db.Close()
			src := rng.New(*seed + uint64(w)*7919)
			var myUpd, myQry stats.Latencies
			for !stop.Load() {
				id := uint64(src.Intn(*users)) + 1
				loc := world.ClampPoint(geo.Pt(
					userPts[id-1].X+src.Range(-0.01, 0.01),
					userPts[id-1].Y+src.Range(-0.01, 0.01),
				))
				if src.Intn(100) < *queryPct {
					ctx, root := spanCtx(tracer.StartRoot("load_private_query"))
					t := time.Now()
					res, err := conn.CloakQueryCtx(ctx, id, loc)
					if err == nil {
						var nn server.PrivateNNResult
						nn, err = db.PrivateNNCtx(ctx, server.PrivateNNQuery{Region: res.Region, Class: "poi"})
						if err == nil {
							server.RefineNN(loc, nn.Candidates)
						}
					}
					root.End()
					if err != nil {
						errCount.Add(1)
					} else {
						myQry.Add(time.Since(t))
					}
				} else if *batch > 1 {
					reqs := make([]cloak.Request, *batch)
					for b := range reqs {
						bid := uint64(src.Intn(*users)) + 1
						reqs[b] = cloak.Request{ID: bid, Loc: world.ClampPoint(geo.Pt(
							userPts[bid-1].X+src.Range(-0.01, 0.01),
							userPts[bid-1].Y+src.Range(-0.01, 0.01),
						))}
					}
					ctx, root := spanCtx(tracer.StartRoot("load_batch_update"))
					t := time.Now()
					if _, err := conn.BatchUpdateCtx(ctx, reqs); err != nil {
						errCount.Add(1)
					} else {
						myUpd.Add(time.Since(t))
					}
					root.End()
					opCount.Add(uint64(*batch) - 1)
				} else {
					ctx, root := spanCtx(tracer.StartRoot("load_update"))
					t := time.Now()
					if _, err := conn.UpdateCtx(ctx, id, loc); err != nil {
						errCount.Add(1)
					} else {
						myUpd.Add(time.Since(t))
					}
					root.End()
				}
				opCount.Add(1)
			}
			mu.Lock()
			updateLat.Merge(&myUpd)
			queryLat.Merge(&myQry)
			mu.Unlock()
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		db, err := protocol.DialDatabase(*dbAddr, cliOpts...)
		if err != nil {
			log.Printf("lbsload: admin worker: %v", err)
			return
		}
		defer db.Close()
		src := rng.New(*seed + 424242)
		var my stats.Latencies
		for !stop.Load() {
			if *queryBatch > 1 {
				// Mixed batch clustered around one center so the server's
				// shared-execution engine actually merges descents.
				c := geo.Pt(src.Range(0.15, 0.85), src.Range(0.15, 0.85))
				entries := make([]server.BatchEntry, *queryBatch)
				for i := range entries {
					p := world.ClampPoint(geo.Pt(c.X+src.Range(-0.08, 0.08), c.Y+src.Range(-0.08, 0.08)))
					r := geo.RectAround(p, 0.02+0.06*src.Float64()).Clip(world)
					switch src.Intn(3) {
					case 0:
						entries[i] = server.BatchEntry{Kind: server.BatchPrivateRange,
							Range: server.PrivateRangeQuery{Region: r, Radius: 0.03 * src.Float64(), Class: "poi"}}
					case 1:
						entries[i] = server.BatchEntry{Kind: server.BatchPrivateNN,
							NN: server.PrivateNNQuery{Region: r, Class: "poi"}}
					default:
						entries[i] = server.BatchEntry{Kind: server.BatchPublicCount,
							Count: server.PublicRangeCountQuery{Query: r}}
					}
				}
				ctx, root := spanCtx(tracer.StartRoot("load_admin_batch"))
				t := time.Now()
				if _, err := db.BatchQueryCtx(ctx, entries); err != nil {
					errCount.Add(1)
				} else {
					my.Add(time.Since(t))
				}
				root.End()
				opCount.Add(uint64(*queryBatch))
				continue
			}
			ctx, root := spanCtx(tracer.StartRoot("load_admin_count"))
			t := time.Now()
			c := geo.Pt(src.Range(0.1, 0.9), src.Range(0.1, 0.9))
			if _, err := db.PublicCountCtx(ctx, geo.RectAround(c, 0.1).Clip(world)); err != nil {
				errCount.Add(1)
			} else {
				my.Add(time.Since(t))
			}
			root.End()
			opCount.Add(1)
		}
		mu.Lock()
		adminLat.Merge(&my)
		mu.Unlock()
	}()

	log.Printf("lbsload: running %d+1 workers for %v ...", *workers, *duration)
	time.Sleep(*duration)
	stop.Store(true)
	wg.Wait()

	total := opCount.Load()
	fmt.Printf("\nresults over %v (%d workers + 1 admin):\n", *duration, *workers)
	fmt.Printf("  throughput : %.0f ops/sec (%d ops, %d errors)\n",
		float64(total)/duration.Seconds(), total, errCount.Load())
	if *batch > 1 {
		fmt.Printf("  updates    : batches of %d — %s\n", *batch, updateLat.Summary())
	} else {
		fmt.Printf("  updates    : %s\n", updateLat.Summary())
	}
	fmt.Printf("  NN queries : %s\n", queryLat.Summary())
	if *queryBatch > 1 {
		fmt.Printf("  admin batch: batches of %d — %s\n", *queryBatch, adminLat.Summary())
	} else {
		fmt.Printf("  admin count: %s\n", adminLat.Summary())
	}
	// Read-only lookups of the counters WithClientMetrics registered; Find
	// neither registers nor takes ownership of the proto_* namespace.
	counterVal := func(name string) float64 {
		s, _ := cliReg.Find(name)
		return s.Value
	}
	fmt.Printf("  resilience : %.0f retries, %.0f timeouts, %.0f reconnects, %.0f breaker opens\n",
		counterVal("proto_retries_total"),
		counterVal("proto_call_timeouts_total"),
		counterVal("proto_reconnects_total"),
		counterVal("proto_breaker_opens_total"))

	// Daemon-side percentile tables over the wire.
	if ac, err := protocol.DialAnonymizer(*anonAddr, protocol.WithCallTimeout(5*time.Second)); err == nil {
		series, merr := ac.Metrics()
		printLiveMetrics("anonymizer", series, merr)
		ac.Close()
	}
	if dc, err := protocol.DialDatabase(*dbAddr, protocol.WithCallTimeout(5*time.Second)); err == nil {
		series, merr := dc.Metrics()
		printLiveMetrics("database", series, merr)
		dc.Close()
	}

	if tracer != nil {
		dumpTraces(tracer, *anonAddr, *dbAddr, *traceOut)
	}

	if checkArmed {
		drops, kMissed, cerr := safetyCounters(*anonAddr)
		if cerr != nil {
			log.Fatalf("lbsload: -check: final metrics read failed: %v", cerr)
		}
		lost := drops - baseDrops
		kViol := kMissed - baseKMissed
		if lost > 0 || kViol > 0 {
			fmt.Printf("\nCHECK FAILED: %.0f acked updates evicted (anon_forward_queue_drops_total), %.0f post-seed cloaks missed k (anon_cloak_k_missed_total)\n", lost, kViol)
			os.Exit(1)
		}
		fmt.Printf("\ncheck ok: zero lost updates, zero post-seed k violations\n")
	}
}

// dumpTraces pulls the span rings of both daemons over the wire, merges
// them with the load tool's own ring into one cross-process timeline,
// writes it as Chrome trace-event JSON (load it in Perfetto or
// chrome://tracing), and prints a self-time attribution for the slowest
// traces still fully resident in the rings.
func dumpTraces(tracer *trace.Tracer, anonAddr, dbAddr, out string) {
	groups := [][]trace.SpanRecord{tracer.Snapshot()}
	if ac, err := protocol.DialAnonymizer(anonAddr, protocol.WithCallTimeout(5*time.Second)); err == nil {
		if spans, terr := ac.Traces(); terr == nil {
			groups = append(groups, spans)
		} else {
			log.Printf("lbsload: anonymizer traces unavailable (started without -trace-sample?): %v", terr)
		}
		ac.Close()
	}
	if dc, err := protocol.DialDatabase(dbAddr, protocol.WithCallTimeout(5*time.Second)); err == nil {
		if spans, terr := dc.Traces(); terr == nil {
			groups = append(groups, spans)
		} else {
			log.Printf("lbsload: database traces unavailable (started without -trace-sample?): %v", terr)
		}
		dc.Close()
	}
	merged := trace.Merge(groups...)
	if len(merged) == 0 {
		log.Printf("lbsload: no spans captured")
		return
	}
	f, err := os.Create(out)
	if err != nil {
		log.Printf("lbsload: %v", err)
		return
	}
	if err := trace.WriteChromeJSON(f, merged); err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		log.Printf("lbsload: write %s: %v", out, err)
		return
	}
	fmt.Printf("\n%d spans merged into %s (open in Perfetto / chrome://tracing)\n", len(merged), out)
	sums := trace.Summarize(merged)
	if len(sums) > 5 {
		sums = sums[:5]
	}
	fmt.Printf("slowest traces (self-time attribution per proc/stage):\n")
	for _, s := range sums {
		fmt.Printf("  trace %016x  %s  %v  (%d spans)\n",
			s.TraceID, s.Root.Name, time.Duration(s.Root.Dur).Round(time.Microsecond), s.Spans)
		type kv struct {
			stage string
			d     time.Duration
		}
		parts := make([]kv, 0, len(s.Self))
		for stage, d := range s.Self {
			parts = append(parts, kv{stage, d})
		}
		sort.Slice(parts, func(i, j int) bool { return parts[i].d > parts[j].d })
		for i, p := range parts {
			if i == 4 {
				break
			}
			fmt.Printf("    %-36s %v\n", p.stage, p.d.Round(time.Microsecond))
		}
	}
}
