package anonymizer

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/cloak"
	"repro/internal/geo"
)

// TestHotPathAllocs holds the anonymizer's allocation budgets: heap
// allocations per call on a warm, fixed fixture, which may only go down.
// The batches run BatchUpdateCtx through all three phases, forwardBatch
// included, for 64 distinct users: one moves them between two places, so
// their regions change and are forwarded; the other re-sends the same
// places, so the incremental cache finds every region unchanged and
// nothing is forwarded.
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	var forwards atomic.Int64
	a := newAnon(t, Config{Incremental: true, Shards: 1, BatchWorkers: 1,
		Forward: func(uint64, geo.Rect) error { forwards.Add(1); return nil }})
	pts := seedUsers(t, a, 1000, 10, 5)
	var moving [2][]cloak.Request
	for h := range moving {
		moving[h] = make([]cloak.Request, 64)
		for i := range moving[h] {
			moving[h][i] = cloak.Request{ID: uint64(i + 1), Loc: pts[i+64*h]}
		}
	}
	batch := func(reqs []cloak.Request) error {
		for _, r := range a.BatchUpdateCtx(context.Background(), reqs) {
			if r == nil {
				return ErrOverloaded
			}
		}
		return nil
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
		{"BatchUpdateCtx 64 users", 111, func() error {
			step++
			return batch(moving[step%2])
		}},
		{"BatchUpdateCtx 64 users, unchanged", 111, func() error {
			return batch(moving[0])
		}},
	}
	for _, tc := range cases {
		var err error
		forwards.Store(0)
		allocs := testing.AllocsPerRun(200, func() {
			if e := tc.run(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		t.Logf("%s: %.0f allocations per call (budget %.0f), %d forwards",
			tc.name, allocs, tc.budget, forwards.Load())
		if allocs > tc.budget {
			t.Errorf("%s: %.0f allocations per call, over its budget of %.0f", tc.name, allocs, tc.budget)
		}
	}
}
