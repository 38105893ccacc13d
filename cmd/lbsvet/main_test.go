package main

import (
	"strings"
	"testing"
)

func TestSelectPasses(t *testing.T) {
	cases := []struct {
		csv     string
		want    string // pass names joined by ","
		wantErr string
	}{
		{csv: "", want: "privleak,lockorder"},
		{csv: ",", want: "privleak,lockorder"},
		{csv: "privleak,", want: "privleak"},
		{csv: " lockorder , ,privleak", want: "lockorder,privleak"},
		{csv: "obsname", wantErr: `unknown pass "obsname" (passes: privleak, lockorder)`},
		{csv: "privleak,atomicmix", wantErr: `unknown pass "atomicmix"`},
	}
	for _, tc := range cases {
		got, err := selectPasses(tc.csv)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("selectPasses(%q) error = %v, want %q", tc.csv, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("selectPasses(%q): %v", tc.csv, err)
			continue
		}
		var names []string
		for _, a := range got {
			names = append(names, a.Name)
		}
		if s := strings.Join(names, ","); s != tc.want {
			t.Errorf("selectPasses(%q) = %s, want %s", tc.csv, s, tc.want)
		}
	}
}
