// Command lbsbench regenerates every experiment in EXPERIMENTS.md — one
// per figure of the paper plus the Section 5.3 scalability studies. Each
// experiment prints the table its EXPERIMENTS.md section records, then its
// verdicts: the section's readings as predicates over the table's numbers.
// Every run checks every verdict it prints and exits 1 naming each one
// that fails.
//
// A timing verdict (marked "timing") states only a time, so it holds only
// at the size it was written for: the lbsbench run at the default size
// asserts it (`make experiments`, CI's bench job). Every other verdict is
// also asserted by TestEveryExperimentRuns at n = 300, seed 1.
//
// Usage:
//
//	lbsbench                 # run everything
//	lbsbench -exp E2,E3      # selected experiments
//	lbsbench -n 50000        # larger population
//	lbsbench -seed 7         # different reproducible seed
//
// The throughput experiments (E16, E17, E20) measure at the process's
// GOMAXPROCS; set the environment variable to measure another width.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// experiment is one reproducible study: run prints its tables and
// reports its verdicts on r.
type experiment struct {
	id    string
	title string
	run   func(cfg benchConfig, r *report)
}

// verdict is one statement an experiment makes about its own table.
type verdict struct {
	name, detail  string
	holds, timing bool
}

// report collects one experiment's verdicts.
type report struct{ verdicts []verdict }

// check records a verdict; detail, formatted with args, gives the numbers
// behind it.
func (r *report) check(name string, holds bool, detail string, args ...any) {
	r.verdicts = append(r.verdicts, verdict{name: name, detail: fmt.Sprintf(detail, args...), holds: holds})
}

// timing records a verdict that states only a time.
func (r *report) timing(name string, holds bool, detail string, args ...any) {
	r.check(name, holds, detail, args...)
	r.verdicts[len(r.verdicts)-1].timing = true
}

// benchConfig carries the shared knobs.
type benchConfig struct {
	n    int    // mobile-user population
	objs int    // public-object count
	seed uint64 // base RNG seed
}

var experiments = []experiment{
	{"E1", "Figure 2 — temporal privacy profiles", expProfiles},
	{"E2", "Figure 3 — data-dependent cloaking (naive vs MBR)", expDataDependent},
	{"E3", "Figure 4 — space-dependent cloaking (quadtree vs grid)", expSpaceDependent},
	{"E4", "Figure 5a — private range queries over public data", expPrivateRange},
	{"E5", "Figure 5b — private NN queries over public data", expPrivateNN},
	{"E6", "Figure 6a — public probabilistic count over private data", expPublicCount},
	{"E7", "Figure 6b — public NN over private data (e-coupon)", expPublicNN},
	{"E8", "Section 5.3 — incremental cloak evaluation", expIncremental},
	{"E9", "Section 5.3 — shared (batch) execution", expShared},
	{"E10", "Section 5 — best-effort contradictory profiles", expBestEffort},
	{"E11", "Figure 1 — three-tier deployment end to end (TCP)", expEndToEnd},
	{"E12", "Section 2.1 — alternative mechanisms (dummies, landmarks)", expAlternatives},
	{"E13", "Section 2.1 — trajectory-linking adversary", expTracking},
	{"E14", "Section 2.1 — spatio-temporal cloaking (latency vs area)", expTemporal},
	{"E15", "ablation — region index vs full scan", expRegionIndex},
	{"E16", "sharded parallel anonymizer pipeline", expParallel},
	{"E17", "batch queries over the wire (TCP)", expServerBatch},
	{"E20", "spatially-partitioned routing tier — 1 shard vs N shards (TCP)", expRouterScale},
}

// selectExperiments parses the -exp flag: comma-separated ids, trimmed
// and case-insensitive, empty ids skipped. It returns the chosen
// experiments in registry order — all of them when no id is named — or
// an error naming every unknown id, sorted.
func selectExperiments(spec string) ([]experiment, error) {
	want := map[string]bool{}
	for _, id := range strings.Split(spec, ",") {
		if id = strings.ToUpper(strings.TrimSpace(id)); id != "" {
			want[id] = true
		}
	}
	if len(want) == 0 {
		return experiments, nil
	}
	var sel []experiment
	for _, e := range experiments {
		if want[e.id] {
			sel = append(sel, e)
			delete(want, e.id)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for id := range want {
			unknown = append(unknown, id)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown experiments: %s", strings.Join(unknown, ", "))
	}
	return sel, nil
}

func main() {
	expFlag := flag.String("exp", "", "comma-separated experiment ids (default: all)")
	n := flag.Int("n", 10000, "mobile-user population")
	objs := flag.Int("objs", 10000, "public-object count")
	seed := flag.Uint64("seed", 1, "base RNG seed")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-4s %s\n", e.id, e.title)
		}
		return
	}
	sel, err := selectExperiments(*expFlag)
	if err != nil {
		log.Fatalf("lbsbench: %v", err)
	}

	cfg := benchConfig{n: *n, objs: *objs, seed: *seed}
	start := time.Now()
	failed := runExperiments(os.Stdout, sel, cfg)
	fmt.Printf("\n%d experiment(s) in %v (n=%d, objs=%d, seed=%d)\n",
		len(sel), time.Since(start).Round(time.Millisecond), cfg.n, cfg.objs, cfg.seed)
	if len(failed) > 0 {
		log.Fatalf("lbsbench: %d verdict(s) failed:\n\t%s", len(failed), strings.Join(failed, "\n\t"))
	}
}

// runExperiments runs each experiment, prints its verdicts under its
// tables, and returns every failed verdict as "id: name".
func runExperiments(w io.Writer, sel []experiment, cfg benchConfig) (failed []string) {
	for _, e := range sel {
		fmt.Fprintf(w, "\n=== %s: %s ===\n", e.id, e.title)
		t0 := time.Now()
		var r report
		e.run(cfg, &r)
		fmt.Fprintln(w)
		for _, v := range r.verdicts {
			status, kind := "ok", ""
			if !v.holds {
				status = "FAIL"
				failed = append(failed, e.id+": "+v.name)
			}
			if v.timing {
				kind = " (timing)"
			}
			fmt.Fprintf(w, "verdict %s%s: %s — %s\n", status, kind, v.name, v.detail)
		}
		fmt.Fprintf(w, "--- %s done in %v ---\n", e.id, time.Since(t0).Round(time.Millisecond))
	}
	return failed
}

// table is a minimal column formatter over tabwriter.
type table struct {
	w *tabwriter.Writer
}

func newTable(headers ...string) *table {
	t := &table{w: tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)}
	fmt.Fprintln(t.w, strings.Join(headers, "\t"))
	sep := make([]string, len(headers))
	for i, h := range headers {
		sep[i] = strings.Repeat("-", len(h))
	}
	fmt.Fprintln(t.w, strings.Join(sep, "\t"))
	return t
}

func (t *table) row(cells ...interface{}) {
	parts := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			parts[i] = fmt.Sprintf("%.4g", v)
		case time.Duration:
			parts[i] = v.Round(time.Microsecond).String()
		default:
			parts[i] = fmt.Sprint(v)
		}
	}
	fmt.Fprintln(t.w, strings.Join(parts, "\t"))
}

func (t *table) flush() { t.w.Flush() }

// falling reports whether no value is above the one before it.
func falling(v []float64) bool {
	return slices.IsSortedFunc(v, func(a, b float64) int { return cmp.Compare(b, a) })
}
