package cloak

import (
	"testing"

	"repro/internal/privacy"
)

// TestHotPathAllocs holds the cloaker's allocation budgets: heap
// allocations per call on a warm, fixed fixture, which may only go down.
// The batches are 64 requests with shared cells; the parallel one fans
// out over four workers.
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	b, reqs := buildBatch(t, 1000, 3)
	reqs = reqs[:64]
	q := &Quadtree{Pyr: b.Pyr}
	req := privacy.Requirement{K: 25}
	cases := []struct {
		name   string
		budget float64
		run    func()
	}{
		{"Quadtree.Cloak", 0, func() { q.Cloak(reqs[0].ID, reqs[0].Loc, req) }},
		{"CloakAll 64", 6, func() { b.CloakAll(reqs) }},
		{"CloakAllParallel 64 on 4", 22, func() { b.CloakAllParallel(reqs, 4) }},
	}
	for _, tc := range cases {
		allocs := testing.AllocsPerRun(200, tc.run)
		t.Logf("%s: %.0f allocations per call (budget %.0f)", tc.name, allocs, tc.budget)
		if allocs > tc.budget {
			t.Errorf("%s: %.0f allocations per call, over its budget of %.0f", tc.name, allocs, tc.budget)
		}
	}
}
