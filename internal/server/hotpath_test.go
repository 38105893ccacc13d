package server

import (
	"context"
	"testing"

	"repro/internal/geo"
)

// TestHotPathAllocs holds the database tier's allocation budgets: heap
// allocations per call on a warm, fixed fixture, which may only go down.
// The mixed batch runs BatchQueryCtx through every kind's answer function
// (answerRange with and without a class, answerNN, answerCount) on the
// pooled coordinator; its NN and class-filtered range entries are memo
// hits after the first call. A repeated PrivateNN is a memo hit, which
// allocates only its answer; the miss row asks a fresh region every call,
// so it runs the kernel and memoizes the answer's entry and slots. The wide
// PrivateNN's first call runs a min–max superset of thousands of
// candidates, whose exact decision probes through the candidate grid
// instead of the plain scan.
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	s := batchFixture(t)
	s.queryWorkers = 1
	nn := PrivateNNQuery{Region: geo.R(0.6, 0.6, 0.7, 0.7)}
	misses := 0
	dense := newServer(t)
	loadObjects(t, dense, 20000, "gas", 11)
	wide := PrivateNNQuery{Region: geo.R(0.3, 0.3, 0.55, 0.55)}
	if res, err := dense.PrivateNN(wide); err != nil || res.SupersetSize <= 2048 {
		t.Fatalf("wide PrivateNN: superset %d (err %v), want above 2048", res.SupersetSize, err)
	}
	count := PublicRangeCountQuery{Query: geo.R(0.2, 0.2, 0.5, 0.5)}
	regions := [2]geo.Rect{geo.R(0.1, 0.1, 0.2, 0.2), geo.R(0.15, 0.1, 0.25, 0.2)}
	updates := 0
	batch := []BatchEntry{
		{Kind: BatchPrivateRange, Range: PrivateRangeQuery{Region: geo.R(0.1, 0.1, 0.3, 0.3), Radius: 0.05}},
		{Kind: BatchPublicCount, Count: count},
		{Kind: BatchPrivateRange, Range: PrivateRangeQuery{Region: geo.R(0.25, 0.25, 0.4, 0.4), Radius: 0.05, Class: "gas", Mode: RangeRounded}},
		{Kind: BatchPrivateNN, NN: nn},
		{Kind: BatchPublicCount, Count: PublicRangeCountQuery{Query: geo.R(0.45, 0.45, 0.8, 0.8)}},
		{Kind: BatchPrivateRange, Range: PrivateRangeQuery{Region: geo.R(0.8, 0.05, 0.9, 0.15), Radius: 0.02}},
		{Kind: BatchPrivateNN, NN: PrivateNNQuery{Region: geo.R(0.1, 0.8, 0.2, 0.9), Class: "gas"}},
	}

	cases := []struct {
		name   string
		budget float64
		run    func() error
	}{
		{"UpdatePrivate", 0, func() error {
			updates++
			return s.UpdatePrivate(1, regions[updates%2])
		}},
		{"PrivateNN", 1, func() error { _, err := s.PrivateNN(nn); return err }},
		{"PrivateNN miss", 3, func() error {
			misses++
			d := float64(misses) * 0x1p-30
			_, err := s.PrivateNN(PrivateNNQuery{Region: geo.R(0.6+d, 0.6, 0.7+d, 0.7)})
			return err
		}},
		{"PrivateNN wide region", 1, func() error { _, err := dense.PrivateNN(wide); return err }},
		{"PublicRangeCount", 1, func() error { _, err := s.PublicRangeCount(count); return err }},
		{"BatchQueryCtx mixed batch", 10, func() error {
			for _, it := range s.BatchQueryCtx(context.Background(), batch).Items {
				if it.Err != nil {
					return it.Err
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
