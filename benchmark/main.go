// Command benchmark is the repository's benchmark: it boots the real
// three-tier deployment in-process on loopback TCP, drives it closed-loop
// with seeded traffic, checks every answer, and prints every metric by
// name with its unit. README.md in this directory defines the workloads
// and metrics; BENCHMARK.json at the repository root declares them.
//
//	go run ./benchmark -seed 1                       every workload, untraced then traced
//	go run ./benchmark -workload city_batch -trace 0 one untraced run, result line last
//	go run ./benchmark -compare a.json b.json        judge two -out files against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// environment is recorded with every result: numbers from different
// boxes, core counts or toolchains are not comparable.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func currentEnvironment() environment {
	env := environment{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// suiteResult is the -out file of a full run and the input of -compare.
type suiteResult struct {
	Env       environment               `json:"env"`
	Seed      uint64                    `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Workloads map[string]workloadResult `json:"workloads"`
}

type workloadResult struct {
	StreamHash string           `json:"stream_hash"`
	Correct    bool             `json:"correct"`
	Attempted  int64            `json:"attempted"`
	Failed     int64            `json:"failed"`
	Metrics    map[string]value `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name, or a comma-separated subset (default: all)")
	seed := flag.Uint64("seed", 1, "seed of the generated residents and traffic")
	seconds := flag.Float64("seconds", defaultSeconds, "length of a run's measured windows in total")
	traceMode := flag.Int("trace", -1, "0: one untraced run of -workload, 1: one traced run; the result line is printed last (default: both, for every workload)")
	out := flag.String("out", "", "write the JSON result of a full run or of -compare to this file")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments against BENCHMARK.json's bounds")
	flag.Parse()

	var selected []spec
	for _, w := range workloads {
		if *workload == "" || slices.Contains(strings.Split(*workload, ","), w.name) {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fatalf("no workload named %q", *workload)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("-compare needs two result files")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), selected, *out))
	case *traceMode >= 0:
		if len(selected) != 1 {
			fatalf("-trace needs exactly one -workload")
		}
		os.Exit(runOne(selected[0], *seed, *seconds, *traceMode == 1))
	default:
		os.Exit(runAll(selected, *seed, *seconds, *out))
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

const traceDir = "benchmark/out"

// run executes one run of one workload and logs its context to stderr.
func run(sp spec, seed uint64, seconds float64, traced bool) (*outcome, error) {
	hash, err := streamHash(sp, seed)
	if err != nil {
		return nil, err
	}
	env := currentEnvironment()
	fmt.Fprintf(os.Stderr, "%s seed=%d seconds=%g traced=%t stream=%s nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		sp.name, seed, seconds, traced, hash, env.NProc, env.GOMAXPROCS, env.Go, env.Commit)
	var o *outcome
	if traced {
		o, err = runTraced(sp, seed, seconds, traceDir)
	} else {
		o, err = runPlain(sp, seed, seconds)
	}
	if err != nil {
		return nil, err
	}
	o.streamHash = hash
	o.Correct = o.Failed == 0
	for i, cause := range o.causes {
		if i == 8 {
			fmt.Fprintf(os.Stderr, "  ... and %d more\n", len(o.causes)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "  FAILED: %v\n", cause)
	}
	return o, nil
}

// runOne is the driver's contract: one run, the result object on the last
// line of standard output, exit 0 unless the run broke or an answer was
// wrong.
func runOne(sp spec, seed uint64, seconds float64, traced bool) int {
	o, err := run(sp, seed, seconds, traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.name, err)
		return 1
	}
	printMetrics(os.Stderr, o.Metrics)
	line, err := json.Marshal(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !o.Correct {
		return 1
	}
	return 0
}

// runAll runs every selected workload untraced, then traced, and prints
// every metric by name with its unit.
func runAll(selected []spec, seed uint64, seconds float64, out string) int {
	res := suiteResult{Env: currentEnvironment(), Seed: seed, Seconds: seconds, Workloads: make(map[string]workloadResult)}
	code := 0
	for _, sp := range selected {
		wr := workloadResult{Correct: true, Metrics: make(map[string]value)}
		for _, traced := range []bool{false, true} {
			o, err := run(sp, seed, seconds, traced)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.name, err)
				return 1
			}
			wr.StreamHash = o.streamHash
			wr.Correct = wr.Correct && o.Correct
			wr.Attempted += o.Attempted
			wr.Failed += o.Failed
			for name, v := range o.Metrics {
				wr.Metrics[name] = v
			}
		}
		res.Workloads[sp.name] = wr
		fmt.Printf("\n%s  stream %s  failed_ops_share %g (%d of %d)\n", sp.name, wr.StreamHash,
			float64(wr.Failed)/float64(wr.Attempted), wr.Failed, wr.Attempted)
		printMetrics(os.Stdout, wr.Metrics)
		if !wr.Correct {
			code = 1
		}
	}
	if out != "" {
		if err := writeJSON(out, res); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return code
}

func printMetrics(w *os.File, ms map[string]value) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-44s %16.6g %s\n", name, ms[name].Value, ms[name].Unit)
	}
}

func writeJSON(path string, v interface{}) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
