package protocol

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/server"
)

// loadBatchFixture pushes a deterministic public/private data set through
// the wire so batch queries have something to answer.
func loadBatchFixture(t *testing.T, admin *DatabaseClient) {
	t.Helper()
	pois, err := mobility.GeneratePoints(mobility.PopulationSpec{
		N: 300, World: world, Dist: mobility.Uniform, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]server.PublicObject, len(pois))
	for i, p := range pois {
		class := "gas"
		if i%3 == 0 {
			class = "bank"
		}
		objs[i] = server.PublicObject{ID: uint64(i + 1), Class: class, Loc: p}
	}
	if err := admin.LoadStationary(objs); err != nil {
		t.Fatal(err)
	}
	users, err := mobility.GeneratePoints(mobility.PopulationSpec{
		N: 150, World: world, Dist: mobility.Gaussian, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range users {
		reg := geo.RectAround(p, 0.01+0.03*float64(i%7)/7).Clip(world)
		if err := admin.UpdatePrivate(uint64(i+1), reg); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchQueryOverWire proves the MsgBatchQuery/MsgBatchResult pair end
// to end: a mixed batch submitted through the client must round-trip to
// exactly the answers the per-query wire calls produce.
func TestBatchQueryOverWire(t *testing.T) {
	_, admin, cleanup := threeTier(t)
	defer cleanup()
	loadBatchFixture(t, admin)

	entries := []server.BatchEntry{
		{Kind: server.BatchPrivateRange, Range: server.PrivateRangeQuery{Region: geo.R(0.2, 0.2, 0.4, 0.4), Radius: 0.05}},
		{Kind: server.BatchPrivateRange, Range: server.PrivateRangeQuery{Region: geo.R(0.35, 0.35, 0.5, 0.5), Radius: 0.03, Class: "gas", Mode: server.RangeMBR}},
		{Kind: server.BatchPublicCount, Count: server.PublicRangeCountQuery{Query: geo.R(0.3, 0.3, 0.7, 0.7)}},
		{Kind: server.BatchPrivateNN, NN: server.PrivateNNQuery{Region: geo.R(0.6, 0.6, 0.7, 0.7)}},
	}
	res, err := admin.BatchQuery(entries)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != len(entries) {
		t.Fatalf("%d items for %d entries", len(res.Items), len(entries))
	}

	// Per-entry answers must equal the per-query wire calls on identical
	// server state.
	r0, err := admin.PrivateRange(entries[0].Range)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items[0].Range) != len(r0) {
		t.Fatalf("range entry: %d candidates via batch, %d via single call", len(res.Items[0].Range), len(r0))
	}
	for i := range r0 {
		if res.Items[0].Range[i] != r0[i] {
			t.Errorf("range candidate %d diverges: %+v vs %+v", i, res.Items[0].Range[i], r0[i])
		}
	}
	c2, err := admin.PublicCount(entries[2].Count.Query)
	if err != nil {
		t.Fatal(err)
	}
	if res.Items[2].Count.NaiveCount != c2.NaiveCount ||
		res.Items[2].Count.Answer.Lo != c2.Answer.Lo ||
		res.Items[2].Count.Answer.Hi != c2.Answer.Hi ||
		math.Abs(res.Items[2].Count.Answer.Expected-c2.Answer.Expected) > 1e-12 {
		t.Errorf("count entry diverges: batch %+v vs single %+v", res.Items[2].Count, c2)
	}
	if len(res.Items[2].Count.Answer.PDF) != len(c2.Answer.PDF) {
		t.Errorf("count PDF length %d vs %d", len(res.Items[2].Count.Answer.PDF), len(c2.Answer.PDF))
	}
	n3, err := admin.PrivateNN(entries[3].NN)
	if err != nil {
		t.Fatal(err)
	}
	if res.Items[3].NN.SupersetSize != n3.SupersetSize || len(res.Items[3].NN.Candidates) != len(n3.Candidates) {
		t.Errorf("NN entry diverges: batch %d/%d vs single %d/%d",
			res.Items[3].NN.SupersetSize, len(res.Items[3].NN.Candidates),
			n3.SupersetSize, len(n3.Candidates))
	}
}

// TestBatchQueryPerEntryErrorOverWire pins the failure edge across the
// wire: an invalid entry comes back as a typed *server.BatchEntryError
// with its index, kind and the sequential path's message, while the valid
// entries in the same batch still answer — the whole call never fails.
func TestBatchQueryPerEntryErrorOverWire(t *testing.T) {
	_, admin, cleanup := threeTier(t)
	defer cleanup()
	loadBatchFixture(t, admin)

	entries := []server.BatchEntry{
		{Kind: server.BatchPrivateRange, Range: server.PrivateRangeQuery{Region: geo.R(0.2, 0.2, 0.5, 0.5), Radius: 0.05}},
		// Negative radius overlapping entry 0: must fail alone.
		{Kind: server.BatchPrivateRange, Range: server.PrivateRangeQuery{Region: geo.R(0.3, 0.3, 0.45, 0.45), Radius: -2}},
		{Kind: server.BatchPublicCount, Count: server.PublicRangeCountQuery{Query: geo.R(0.1, 0.1, 0.6, 0.6)}},
	}
	res, err := admin.BatchQuery(entries)
	if err != nil {
		t.Fatalf("whole call failed: %v (a bad entry must not poison the batch)", err)
	}
	var bee *server.BatchEntryError
	if !errors.As(res.Items[1].Err, &bee) {
		t.Fatalf("entry 1 error = %v (%T), want *server.BatchEntryError", res.Items[1].Err, res.Items[1].Err)
	}
	if bee.Index != 1 || bee.Kind != server.BatchPrivateRange {
		t.Errorf("error carries Index=%d Kind=%v, want 1/private_range", bee.Index, bee.Kind)
	}
	// The cause crossed the wire verbatim from the sequential validator.
	if _, wantErr := admin.PrivateRange(entries[1].Range); wantErr == nil ||
		!strings.Contains(bee.Err.Error(), "invalid radius") {
		t.Errorf("cause %q does not carry the sequential validation message", bee.Err)
	}
	if res.Items[0].Err != nil || len(res.Items[0].Range) == 0 {
		t.Errorf("valid range entry suffered: err=%v candidates=%d", res.Items[0].Err, len(res.Items[0].Range))
	}
	if res.Items[2].Err != nil || len(res.Items[2].Count.Answer.PDF) == 0 {
		t.Errorf("valid count entry suffered: err=%v", res.Items[2].Err)
	}
}

// TestBatchQueryWireLimits: an oversized batch is rejected as a whole-call
// error (the per-entry contract only covers admitted entries), and an
// empty batch round-trips cleanly.
func TestBatchQueryWireLimits(t *testing.T) {
	_, admin, cleanup := threeTier(t)
	defer cleanup()

	res, err := admin.BatchQuery(nil)
	if err != nil {
		t.Fatalf("empty batch failed: %v", err)
	}
	if len(res.Items) != 0 || res.SharedHits != 0 {
		t.Errorf("empty batch returned %+v", res)
	}

	big := make([]server.BatchEntry, 4097)
	for i := range big {
		big[i] = server.BatchEntry{Kind: server.BatchPublicCount, Count: server.PublicRangeCountQuery{Query: geo.R(0, 0, 0.1, 0.1)}}
	}
	if _, err := admin.BatchQuery(big); err == nil {
		t.Error("oversized batch accepted")
	}
}
