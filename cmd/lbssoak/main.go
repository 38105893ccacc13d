// Command lbssoak drives the three-tier pipeline through the scenario
// catalog — steady load, flash crowds, mass profile flips, database
// outages, slow links, rolling restarts, query floods — and gates each run
// on service-level objectives read from the daemons' own live metrics
// endpoints. It boots the real stack in-process, or with -anon and -db
// drives a running deployment (only the scenarios that need no outage
// lever or tuned topology). Under each verdict it prints the daemons'
// histogram tables; with -trace it traces every request and writes one
// merged Chrome/Perfetto timeline of the client and both daemons.
//
// Exit status: 0 when every scenario meets every SLO, 1 when any SLO is
// violated, 2 on harness/setup errors. CI gates on exactly this.
//
// Usage:
//
//	lbssoak -users 20000 -workers 8 -seed 1                  # full catalog
//	lbssoak -scenarios flash_crowd,db_outage -scale 0.4      # CI short soak
//	lbssoak -scenarios steady -batch 1 -users 200 -objs 200 -scale 0.2
//	lbssoak -users 1000000 -batch 64 -scale 2                # long city-scale soak
//	lbssoak -admission=false -scenarios db_outage            # demonstrate the failure
//	lbssoak -shards 4                                        # routed database tier (4 lbsd shards)
//	lbssoak -anon localhost:7071 -db localhost:7070 -scenarios steady,flash_crowd -trace trace.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/trace"
)

func main() {
	users := flag.Int("users", 20000, "registered mobile users (streamed; try 1000000 for the city-scale soak)")
	objs := flag.Int("objs", 5000, "stationary public objects")
	k := flag.Int("k", 10, "baseline anonymity requirement")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "closed-loop driver connections")
	batch := flag.Int("batch", 16, "locations per BatchUpdate frame (1 = single MsgUpdate)")
	seed := flag.Uint64("seed", 1, "run seed; same seed + flags = same workload")
	scale := flag.Float64("scale", 1.0, "multiplier on scenario phase durations (CI uses < 1)")
	admission := flag.Bool("admission", true, "booted stack: enable daemon admission control + forward backpressure (the machinery under test)")
	maxInflight := flag.Int("max-inflight", 256, "booted stack: per-daemon admission budget (with -admission)")
	shards := flag.Int("shards", 0, "booted stack: deploy the database tier as this many lbsd shards behind a routing tier (0/1 = single database; shard_kill forces ≥ 2)")
	anon := flag.String("anon", "", "drive the running anonymizer at this address instead of booting a stack (needs -db)")
	db := flag.String("db", "", "with -anon: the running database tier's address (an lbsd or an lbsrouter)")
	traceOut := flag.String("trace", "", "trace every request and write the merged client + daemon timeline to this file (running daemons need -trace-sample > 0)")
	scenarios := flag.String("scenarios", "", "comma-separated scenario names (empty = full catalog)")
	list := flag.Bool("list", false, "list the scenario catalog and exit")
	flag.Parse()

	if *list {
		for _, sc := range scenario.Catalog() {
			fmt.Printf("  %-16s %s\n", sc.Name, sc.Desc)
		}
		return
	}

	var run []scenario.Scenario
	if *scenarios == "" {
		run = scenario.Catalog()
	} else {
		for _, name := range strings.Split(*scenarios, ",") {
			name = strings.TrimSpace(name)
			sc, ok := scenario.Find(name)
			if !ok {
				log.Printf("lbssoak: unknown scenario %q (use -list)", name)
				os.Exit(2)
			}
			run = append(run, sc)
		}
	}

	cfg := scenario.Config{
		Users: *users, Objects: *objs, K: *k,
		Workers: *workers, Batch: *batch,
		Seed: *seed, Scale: *scale,
		Admission: *admission, MaxInflight: *maxInflight,
		Shards: *shards,
		Anon:   *anon, DB: *db, Trace: *traceOut != "",
		Logf: log.Printf,
	}
	target := fmt.Sprintf("booted stack (admission %v, shards %d)", *admission, *shards)
	if *anon != "" {
		target = fmt.Sprintf("running deployment at anon=%s db=%s", *anon, *db)
	}
	log.Printf("lbssoak: %d scenarios, %d users, %d workers, seed %d, scale %g, %s",
		len(run), *users, *workers, *seed, *scale, target)

	failed := 0
	var spans [][]trace.SpanRecord
	for _, sc := range run {
		log.Printf("lbssoak: === %s — %s", sc.Name, sc.Desc)
		res, err := scenario.Run(sc, cfg)
		if err != nil {
			log.Printf("lbssoak: %s: harness error: %v", sc.Name, err)
			os.Exit(2)
		}
		fmt.Println(res.Summary())
		for _, v := range res.Violations {
			fmt.Printf("  SLO VIOLATION %v\n", v)
		}
		printHistograms("anonymizer", res.AnonMetrics)
		printHistograms("database", res.DBMetrics)
		if !res.Passed() {
			failed++
		}
		spans = append(spans, res.Traces...)
	}
	if *traceOut != "" {
		if err := writeTraces(*traceOut, trace.Merge(spans...)); err != nil {
			log.Printf("lbssoak: -trace: %v", err)
			os.Exit(2)
		}
	}
	if failed > 0 {
		log.Printf("lbssoak: %d of %d scenarios violated their SLOs", failed, len(run))
		os.Exit(1)
	}
	log.Printf("lbssoak: all %d scenarios met their SLOs", len(run))
}

// printHistograms prints a percentile table for every histogram with
// observations in a daemon's metric snapshot — the distributions the
// latency SLOs are read from. *_seconds histograms format as durations,
// with the id of a captured trace from the slow tail when there is one;
// size/area/ratio histograms print raw quantiles.
func printHistograms(name string, series []obs.MetricSnapshot) {
	fmt.Printf("  %s histograms (from the daemon's own registry):\n", name)
	for _, s := range series {
		if s.Kind != obs.KindHistogram || s.Hist.Count() == 0 {
			continue
		}
		label := s.Name
		if len(s.Labels) > 0 {
			parts := make([]string, len(s.Labels))
			for i, l := range s.Labels {
				parts[i] = l.Key + "=" + l.Value
			}
			label += "{" + strings.Join(parts, ",") + "}"
		}
		line := fmt.Sprintf("n=%d mean=%.4g p50=%.4g p95=%.4g p99=%.4g", s.Hist.Count(), s.Hist.Mean(),
			s.Hist.Quantile(50), s.Hist.Quantile(95), s.Hist.Quantile(99))
		if strings.HasSuffix(s.Name, "_seconds") {
			line = s.Hist.Summary()
			if ex := s.Hist.ExemplarNear(99); ex != 0 {
				line += fmt.Sprintf(" p99-trace=%016x", ex)
			}
		}
		fmt.Printf("    %-44s %s\n", label, line)
	}
}

// writeTraces writes the merged spans as Chrome trace-event JSON (load it
// in Perfetto or chrome://tracing) and prints a self-time attribution for
// the slowest traces still fully resident in the rings.
func writeTraces(out string, spans []trace.SpanRecord) error {
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := trace.WriteChromeJSON(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("\n%d spans merged into %s (open in Perfetto / chrome://tracing)\n", len(spans), out)
	fmt.Printf("slowest traces (self-time attribution per proc/stage):\n")
	sums := trace.Summarize(spans)
	for _, s := range sums[:min(5, len(sums))] {
		fmt.Printf("  trace %016x  %s  %v  (%d spans)\n",
			s.TraceID, s.Root.Name, time.Duration(s.Root.Dur).Round(time.Microsecond), s.Spans)
		stages := make([]string, 0, len(s.Self))
		for stage := range s.Self {
			stages = append(stages, stage)
		}
		sort.Slice(stages, func(i, j int) bool { return s.Self[stages[i]] > s.Self[stages[j]] })
		for _, stage := range stages[:min(4, len(stages))] {
			fmt.Printf("    %-36s %v\n", stage, s.Self[stage].Round(time.Microsecond))
		}
	}
	return nil
}
