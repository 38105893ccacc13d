package router

import (
	"context"
	"testing"

	"repro/internal/geo"
	"repro/internal/server"
)

// fixedShard answers every sub-batch from one fixed object and one fixed
// user probability, into a reused buffer, so that the router's own
// allocations are all that is counted. The router copies what it keeps,
// and no other Shard method is called.
type fixedShard struct {
	Shard
	objs  []server.PublicObject
	probs []server.UserProb
	out   []SubResult
}

func (f *fixedShard) ShardBatchCtx(_ context.Context, subs []SubQuery) ([]SubResult, error) {
	f.out = f.out[:0]
	for _, sq := range subs {
		sr := SubResult{Index: sq.Index, Kind: sq.Entry.Kind}
		switch sq.Entry.Kind {
		case server.BatchPrivateRange:
			sr.Range = f.objs
		case server.BatchPrivateNN:
			sr.NN = server.NNParts{Bound: 0.01, Candidates: f.objs}
		case server.BatchPublicCount:
			sr.Count = f.probs
		}
		f.out = append(f.out, sr)
	}
	return f.out, nil
}

// TestHotPathAllocs holds the routing tier's allocation budget: heap
// allocations per call on a warm, fixed fixture, which may only go down.
// The mixed batch over four shards runs BatchQueryCtx through both
// scatterSubBatches waves: its NN bound opens a second neighbourhood.
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	world := geo.R(0, 0, 1, 1)
	shards := make([]Shard, 4)
	for i := range shards {
		shards[i] = &fixedShard{
			objs:  []server.PublicObject{{ID: uint64(i + 1), Loc: geo.Pt(0.2*float64(i+1), 0.5)}},
			probs: []server.UserProb{{ID: uint64(i + 1), P: 0.5}},
		}
	}
	r, err := New(Config{World: world, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	batch := []server.BatchEntry{
		{Kind: server.BatchPrivateRange, Range: server.PrivateRangeQuery{Region: geo.R(0.1, 0.1, 0.3, 0.3), Radius: 0.05}},
		{Kind: server.BatchPublicCount, Count: server.PublicRangeCountQuery{Query: geo.R(0.2, 0.2, 0.7, 0.7)}},
		{Kind: server.BatchPrivateNN, NN: server.PrivateNNQuery{Region: geo.R(0.6, 0.6, 0.62, 0.62)}},
		{Kind: server.BatchPrivateRange, Range: server.PrivateRangeQuery{Region: geo.R(0.8, 0.05, 0.9, 0.15), Radius: 0.02}},
	}
	cases := []struct {
		name   string
		budget float64
		run    func() error
	}{
		{"BatchQueryCtx mixed batch", 95, func() error {
			res, err := r.BatchQueryCtx(context.Background(), batch)
			if err == nil && res.Groups <= 4 {
				t.Errorf("Groups = %d: no second wave", res.Groups)
			}
			return err
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
