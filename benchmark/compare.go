package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
)

// benchmarkFile is where the declared metrics and their regression
// bounds live, relative to the repository root the benchmark runs from.
const benchmarkFile = "BENCHMARK.json"

// declaration is the part of BENCHMARK.json the benchmark itself reads.
type declaration struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v interface{}) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Verdicts of one workload × end-to-end metric pair.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// comparison is one row of the comparator's table.
type comparison struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	// Worse is how much worse b is than a, as a share of a, in the
	// metric's own direction: negative when b is better.
	Worse   float64 `json:"worse"`
	Bound   float64 `json:"bound"`
	Verdict string  `json:"verdict"`
}

// judge compares b against a for one metric. A pair is unresolved when
// either side is missing or not a positive finite number: there is then
// no base to take a share of.
func judge(m declaredMetric, a, b value, haveA, haveB bool) (worse float64, verdict string) {
	usable := func(v float64) bool { return v > 0 && !math.IsInf(v, 0) }
	if !haveA || !haveB || !usable(a.Value) || !usable(b.Value) {
		return 0, verdictUnresolved
	}
	worse = (b.Value - a.Value) / a.Value
	if m.Better == "higher" {
		worse = -worse
	}
	if worse > m.Bound {
		return worse, verdictWorse
	}
	return worse, verdictOK
}

// compareSuites judges every selected workload × end-to-end metric.
func compareSuites(decl declaration, a, b suiteResult, selected []spec) []comparison {
	var rows []comparison
	for _, sp := range selected {
		wa, wb := a.Workloads[sp.name], b.Workloads[sp.name]
		for _, m := range decl.EndToEnd {
			va, okA := wa.Metrics[m.Name]
			vb, okB := wb.Metrics[m.Name]
			worse, verdict := judge(m, va, vb, okA, okB)
			rows = append(rows, comparison{sp.name, m.Name, va.Value, vb.Value, worse, m.Bound, verdict})
		}
		// Failed operations are gated absolutely: the share may not rise by
		// more than one in a thousand.
		verdict := verdictOK
		fa, fb := failedShare(wa), failedShare(wb)
		switch {
		case wa.Attempted == 0 || wb.Attempted == 0:
			verdict = verdictUnresolved
		case fb-fa > 0.001:
			verdict = verdictWorse
		}
		rows = append(rows, comparison{sp.name, "failed_ops_share", fa, fb, fb - fa, 0.001, verdict})
	}
	return rows
}

func failedShare(w workloadResult) float64 {
	return float64(w.Failed) / float64(max(w.Attempted, 1))
}

// compareFiles is -compare: it prints the table, optionally writes it as
// JSON, and returns the exit code — 1 when any pair is worse.
func compareFiles(pathA, pathB string, selected []spec, out string) int {
	var decl declaration
	var a, b suiteResult
	if err := errors.Join(readJSON(benchmarkFile, &decl), readJSON(pathA, &a), readJSON(pathB, &b)); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	if a.Env != b.Env {
		fmt.Printf("note: environments differ: %+v vs %+v\n", a.Env, b.Env)
	}
	rows := compareSuites(decl, a, b, selected)
	code := 0
	fmt.Printf("%-16s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	for _, r := range rows {
		fmt.Printf("%-16s %-22s %14.6g %14.6g %+8.1f%% %6.1f%%  %s\n",
			r.Workload, r.Metric, r.A, r.B, 100*r.Worse, 100*r.Bound, r.Verdict)
		if r.Verdict == verdictWorse {
			code = 1
		}
	}
	if out != "" {
		if err := writeJSON(out, rows); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 2
		}
	}
	return code
}
