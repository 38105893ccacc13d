package cloak

import (
	"testing"

	"repro/internal/privacy"
)

// TestHotPathAllocs holds the cloaker's allocation budgets: heap
// allocations per call on a warm, fixed fixture, which may only go down.
// The batches are 64 quadtree requests with shared cells, cloaked inline
// and fanned out over four workers.
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	pyr, reqs := buildBatch(t, 1000, 3)
	reqs = reqs[:64]
	q := &Quadtree{Pyr: pyr}
	b := &Batch{Pyr: pyr, Inner: q}
	req := privacy.Requirement{K: 25}
	cases := []struct {
		name   string
		budget float64
		run    func()
	}{
		{"Quadtree.Cloak", 0, func() { q.Cloak(reqs[0].ID, reqs[0].Loc, req) }},
		{"CloakAll 64", 6, func() { b.CloakAll(reqs, 1) }},
		{"CloakAll 64 on 4", 13, func() { b.CloakAll(reqs, 4) }},
	}
	for _, tc := range cases {
		allocs := testing.AllocsPerRun(200, tc.run)
		t.Logf("%s: %.0f allocations per call (budget %.0f)", tc.name, allocs, tc.budget)
		if allocs > tc.budget {
			t.Errorf("%s: %.0f allocations per call, over its budget of %.0f", tc.name, allocs, tc.budget)
		}
	}
}
