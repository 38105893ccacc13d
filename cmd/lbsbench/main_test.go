package main

import (
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

// TestEveryExperimentRuns keeps every table printer working: each
// registered experiment runs once at a small population. The tables
// themselves are not checked; a failing experiment exits the process.
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
		t.Run(e.id, func(t *testing.T) { e.run(cfg) })
	}
}
