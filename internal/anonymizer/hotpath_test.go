package anonymizer

import (
	"context"
	"testing"

	"repro/internal/cloak"
	"repro/internal/geo"
)

// TestHotPathAllocs holds the anonymizer's allocation budgets: heap
// allocations per call on a warm, fixed fixture, which may only go down.
// The batch runs BatchUpdateCtx through all three phases, forwardBatch
// included, for 64 distinct users.
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	a := newAnon(t, Config{Incremental: true, Shards: 1, BatchWorkers: 1,
		Forward: func(uint64, geo.Rect) error { return nil }})
	pts := seedUsers(t, a, 1000, 10, 5)
	batch := make([]cloak.Request, 64)
	for i := range batch {
		batch[i] = cloak.Request{ID: uint64(i + 1), Loc: pts[i]}
	}
	step := 0
	cases := []struct {
		name   string
		budget float64
		run    func() error
	}{
		{"Update", 0, func() error {
			step++
			_, err := a.Update(1, pts[step%2])
			return err
		}},
		{"BatchUpdateCtx 64 users", 112, func() error {
			for _, r := range a.BatchUpdateCtx(context.Background(), batch) {
				if r == nil {
					return ErrOverloaded
				}
			}
			return nil
		}},
	}
	for _, tc := range cases {
		var err error
		allocs := testing.AllocsPerRun(200, func() {
			if e := tc.run(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		t.Logf("%s: %.0f allocations per call (budget %.0f)", tc.name, allocs, tc.budget)
		if allocs > tc.budget {
			t.Errorf("%s: %.0f allocations per call, over its budget of %.0f", tc.name, allocs, tc.budget)
		}
	}
}
