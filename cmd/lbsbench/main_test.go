package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestSelectExperiments(t *testing.T) {
	ids := func(sel []experiment) []string {
		out := make([]string, len(sel))
		for i, e := range sel {
			out[i] = e.id
		}
		return out
	}
	for _, tc := range []struct {
		spec    string
		want    []string // nil: every registered experiment
		wantErr string
	}{
		{spec: ""},
		{spec: ","},
		{spec: "e2, E3", want: []string{"E2", "E3"}},
		{spec: "E3,E2,e3", want: []string{"E2", "E3"}},
		{spec: "E1,", want: []string{"E1"}},
		{spec: ",,E20,,", want: []string{"E20"}},
		{spec: "E1,E99", wantErr: "unknown experiments: E99"},
		{spec: "x,E1,e99", wantErr: "unknown experiments: E99, X"},
	} {
		sel, err := selectExperiments(tc.spec)
		if tc.wantErr != "" {
			if err == nil || !strings.HasSuffix(err.Error(), tc.wantErr) {
				t.Errorf("selectExperiments(%q) error = %v, want %q", tc.spec, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("selectExperiments(%q): %v", tc.spec, err)
			continue
		}
		want := tc.want
		if want == nil {
			want = ids(experiments)
		}
		if got := ids(sel); !reflect.DeepEqual(got, want) {
			t.Errorf("selectExperiments(%q) = %v, want %v", tc.spec, got, want)
		}
	}
}

// TestEveryExperimentRuns runs each registered experiment once at a small
// population and asserts every verdict it reports except the timing ones,
// which hold only at the default size the lbsbench run checks.
func TestEveryExperimentRuns(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments {
		if seen[e.id] {
			t.Fatalf("experiment id %s registered twice", e.id)
		}
		seen[e.id] = true
	}
	cfg := benchConfig{n: 300, objs: 300, seed: 1}
	for _, e := range experiments {
		t.Run(e.id, func(t *testing.T) {
			var r report
			e.run(cfg, &r)
			for _, v := range r.verdicts {
				if !v.holds && !v.timing {
					t.Errorf("verdict failed: %s — %s", v.name, v.detail)
				}
			}
		})
	}
}

// TestRunnerNamesFailedVerdicts: a verdict that does not hold, timing or
// not, is printed as failed and returned by name, so lbsbench exits 1
// naming it.
func TestRunnerNamesFailedVerdicts(t *testing.T) {
	sel := []experiment{
		{"X1", "holds", func(_ benchConfig, r *report) { r.check("fine", true, "") }},
		{"X2", "fails", func(_ benchConfig, r *report) {
			r.check("wrong", false, "%d of %d", 1, 2)
			r.check("right", true, "")
			r.timing("slow", false, "%s", "3x")
		}},
	}
	var out bytes.Buffer
	failed := runExperiments(&out, sel, benchConfig{})
	if want := []string{"X2: wrong", "X2: slow"}; !reflect.DeepEqual(failed, want) {
		t.Errorf("failed = %q, want %q", failed, want)
	}
	for _, line := range []string{
		"verdict ok: fine — \n",
		"verdict FAIL: wrong — 1 of 2\n",
		"verdict ok: right — \n",
		"verdict FAIL (timing): slow — 3x\n",
	} {
		if !strings.Contains(out.String(), line) {
			t.Errorf("output lacks %q:\n%s", line, out.String())
		}
	}
}
