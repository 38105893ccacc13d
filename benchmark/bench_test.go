package main

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// smokeScale shrinks the populations for the tests' runs.
const smokeScale = 20

func (s spec) scaled(div int) spec {
	s.users /= div
	s.objects /= div
	return s
}

func TestStreamHashFollowsSeed(t *testing.T) {
	hashes := make(map[string]string)
	for _, sp := range workloads {
		sp = sp.scaled(smokeScale)
		a, err := streamHash(sp, 1)
		if err != nil {
			t.Fatal(err)
		}
		again, _ := streamHash(sp, 1)
		other, _ := streamHash(sp, 2)
		if a != again {
			t.Errorf("%s: seed 1 hashed to %s, then to %s", sp.name, a, again)
		}
		if a == other {
			t.Errorf("%s: seeds 1 and 2 both hash to %s", sp.name, a)
		}
		hashes[sp.name] = a
	}
	if hashes["commute_direct"] != hashes["commute_routed"] {
		t.Errorf("commute_routed must consume commute_direct's stream: %s vs %s",
			hashes["commute_routed"], hashes["commute_direct"])
	}
	if hashes["commute_direct"] == hashes["city_batch"] {
		t.Errorf("city_batch hashes like commute_direct")
	}
}

// TestDeclarationMatches holds BENCHMARK.json and the program to the same
// workloads, metrics, units and directions.
func TestDeclarationMatches(t *testing.T) {
	var decl declaration
	if err := readJSON(filepath.Join("..", benchmarkFile), &decl); err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the program's default window is %d", decl.RunSeconds, defaultSeconds)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is declared %q and implemented %q", i, w.Name, workloads[i].name)
		}
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := make(map[string]bool)
	check := func(kind string, declared []declaredMetric, implemented []metric) {
		if len(declared) != len(implemented) {
			t.Fatalf("%d %s metrics declared, %d implemented", len(declared), kind, len(implemented))
		}
		for i, m := range implemented {
			if !nameRE.MatchString(m.name) {
				t.Errorf("metric name %q is outside the allowed alphabet", m.name)
			}
			if seen[m.name] {
				t.Errorf("metric name %q is used twice", m.name)
			}
			seen[m.name] = true
			if d := declared[i]; d.Name != m.name || d.Unit != m.unit || d.Better != m.better {
				t.Errorf("%s metric %d is declared %+v and implemented %+v", kind, i, d, m)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd)
	check("per_layer", decl.PerLayer, perLayer)
	for _, m := range decl.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestSmoke runs every workload at 1/20 scale, one second untraced and half
// a second traced, and wants every declared metric present and finite, no failed
// operation, the oracle passing, and the trace file written.
func TestSmoke(t *testing.T) {
	for _, sp := range workloads {
		sp := sp.scaled(smokeScale)
		t.Run(sp.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			plain, err := runPlain(sp, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runTraced(sp, 1, 0.5, dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, run := range []struct {
				o    *outcome
				decl []metric
			}{{plain, endToEnd}, {traced, perLayer}} {
				if run.o.Failed != 0 || run.o.Attempted == 0 {
					t.Errorf("%d of %d operations failed: %v", run.o.Failed, run.o.Attempted, run.o.causes)
				}
				if len(run.o.Metrics) != len(run.decl) {
					t.Errorf("%d metrics printed, %d declared", len(run.o.Metrics), len(run.decl))
				}
				for _, m := range run.decl {
					v, ok := run.o.Metrics[m.name]
					if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != m.unit {
						t.Errorf("metric %s: got %+v (present %t)", m.name, v, ok)
					}
				}
			}
			for _, m := range endToEnd {
				if plain.Metrics[m.name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %g, must be positive", m.name, plain.Metrics[m.name].Value)
				}
			}
			if st, err := os.Stat(filepath.Join(dir, sp.name+".trace.json")); err != nil || st.Size() == 0 {
				t.Errorf("trace file: %v", err)
			}
			if frames := traced.Metrics["protocol.frames_per_op"].Value; frames <= 0 {
				t.Errorf("protocol.frames_per_op is %g: the dialer seam counted nothing", frames)
			}
			if sp.shards > 0 && traced.Metrics["router.shard_calls_per_op"].Value <= 0 {
				t.Errorf("routed workload recorded no shard call")
			}
		})
	}
}

func TestCompareVerdicts(t *testing.T) {
	decl := declaration{EndToEnd: []declaredMetric{
		{Name: "latency", Unit: "us", Better: "lower", Bound: 0.10},
		{Name: "rate", Unit: "ops/s", Better: "higher", Bound: 0.10},
		{Name: "absent", Unit: "s", Better: "lower", Bound: 0.10},
	}}
	suite := func(latency, rate float64, failed int64) suiteResult {
		return suiteResult{Workloads: map[string]workloadResult{"w": {Attempted: 1000, Failed: failed,
			Metrics: map[string]value{"latency": {latency, "us"}, "rate": {rate, "ops/s"}}}}}
	}
	sel := []spec{{name: "w"}}
	cases := []struct {
		name string
		b    suiteResult
		want map[string]string
	}{
		{"same", suite(100, 1000, 0), map[string]string{"latency": verdictOK, "rate": verdictOK, "failed_ops_share": verdictOK}},
		{"within", suite(109, 905, 1), map[string]string{"latency": verdictOK, "rate": verdictOK, "failed_ops_share": verdictOK}},
		{"better", suite(50, 2000, 0), map[string]string{"latency": verdictOK, "rate": verdictOK}},
		{"slower", suite(111, 1000, 0), map[string]string{"latency": verdictWorse, "rate": verdictOK}},
		{"less", suite(100, 890, 0), map[string]string{"latency": verdictOK, "rate": verdictWorse}},
		{"failing", suite(100, 1000, 2), map[string]string{"failed_ops_share": verdictWorse}},
		{"zero", suite(0, 1000, 0), map[string]string{"latency": verdictUnresolved, "rate": verdictOK}},
	}
	for _, tc := range cases {
		got := make(map[string]string)
		for _, row := range compareSuites(decl, suite(100, 1000, 0), tc.b, sel) {
			got[row.Metric] = row.Verdict
		}
		if got["absent"] != verdictUnresolved {
			t.Errorf("%s: a metric missing on both sides is %q", tc.name, got["absent"])
		}
		for metric, want := range tc.want {
			if got[metric] != want {
				t.Errorf("%s: %s is %q, want %q", tc.name, metric, got[metric], want)
			}
		}
	}
}

func TestFrameScanCountsAcrossCuts(t *testing.T) {
	// Three frames: payloads of 0, 3 and 300 bytes behind [u32 n+1][type].
	var stream []byte
	for _, n := range []int{0, 3, 300} {
		stream = append(stream, byte(n+1), byte((n+1)>>8), 0, 0, 7)
		stream = append(stream, make([]byte, n)...)
	}
	for _, cut := range []int{1, 2, 5, 7, 64, len(stream)} {
		var f frameScan
		var frames int64
		for rest := stream; len(rest) > 0; {
			n := min(cut, len(rest))
			frames += f.scan(rest[:n])
			rest = rest[n:]
		}
		if frames != 3 {
			t.Errorf("cut every %d bytes: counted %d frames, want 3", cut, frames)
		}
	}
}
