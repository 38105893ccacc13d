package server

import (
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/rng"
)

// loadPrivateUsers gives the server n users cloaked as squares of the given
// half-width centered at generated points (clipped to the world), and
// returns the exact centers (the "true" locations used for ground truth).
func loadPrivateUsers(t testing.TB, s *Server, n int, half float64, seed uint64) []geo.Point {
	t.Helper()
	pts, err := mobility.GeneratePoints(mobility.PopulationSpec{
		N: n, World: world, Dist: mobility.Uniform, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		region := geo.RectAround(p, half).Clip(world)
		if err := s.UpdatePrivate(uint64(i+1), region); err != nil {
			t.Fatal(err)
		}
	}
	return pts
}

func TestPublicRangeCountValidation(t *testing.T) {
	s := newServer(t)
	if _, err := s.PublicRangeCount(PublicRangeCountQuery{Query: geo.Rect{Min: geo.Pt(1, 1)}}); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestPublicRangeCountPaperExample(t *testing.T) {
	// Reconstruct Figure 6a: regions with overlaps 1, 0.75, 0.5, 0.2, 0.25
	// and one fully outside.
	s := newServer(t)
	query := geo.R(0.2, 0.2, 0.6, 0.6)
	put := func(id uint64, r geo.Rect) {
		if err := s.UpdatePrivate(id, r); err != nil {
			t.Fatal(err)
		}
	}
	put(1, geo.R(0.3, 0.3, 0.4, 0.4))     // fully inside: p=1 (object D)
	put(2, geo.R(0.1, 0.3, 0.3, 0.4))     // half in: p=0.5 (object B-ish)
	put(3, geo.R(0.15, 0.25, 0.35, 0.45)) // 75% in: p=0.75
	put(4, geo.R(0.55, 0.55, 0.8, 0.7))   // 20%: width 0.05 of 0.25 → p=0.04? adjust below
	put(5, geo.R(0.7, 0.7, 0.9, 0.9))     // outside: p=0 (object C)

	res, err := s.PublicRangeCount(PublicRangeCountQuery{Query: query})
	if err != nil {
		t.Fatal(err)
	}
	// Exact expected value: sum of analytic overlaps.
	wantE := 1.0 + 0.5 + 0.75 + prob4(query)
	if math.Abs(res.Answer.Expected-wantE) > 1e-9 {
		t.Errorf("Expected = %v, want %v", res.Answer.Expected, wantE)
	}
	if res.Answer.Lo != 1 {
		t.Errorf("Lo = %d, want 1 (only the fully-inside user is certain)", res.Answer.Lo)
	}
	if res.Answer.Hi != 4 {
		t.Errorf("Hi = %d, want 4 (user 5 cannot contribute)", res.Answer.Hi)
	}
	if res.NaiveCount != 4 {
		t.Errorf("NaiveCount = %d, want 4 (counts every overlapping region)", res.NaiveCount)
	}
	// The naive strawman over-counts relative to the expected value.
	if float64(res.NaiveCount) <= res.Answer.Expected {
		t.Error("naive count should exceed the probabilistic expectation here")
	}
}

// prob4 computes the analytic overlap of user 4's region with the query.
func prob4(query geo.Rect) float64 {
	region := geo.R(0.55, 0.55, 0.8, 0.7)
	return region.OverlapArea(query) / region.Area()
}

// Ground truth check: with many users whose exact locations we know, the
// expected-value answer should track the true count far better than the
// naive region count (the E6 claim).
func TestPublicRangeCountAccuracy(t *testing.T) {
	s := newServer(t)
	exact := loadPrivateUsers(t, s, 3000, 0.05, 11)
	src := rng.New(13)
	var sumProbErr, sumNaiveErr float64
	const trials = 30
	for i := 0; i < trials; i++ {
		q := geo.RectAround(geo.Pt(0.2+0.6*src.Float64(), 0.2+0.6*src.Float64()), 0.1+0.1*src.Float64())
		res, err := s.PublicRangeCount(PublicRangeCountQuery{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		truth := 0
		for _, p := range exact {
			if q.Contains(p) {
				truth++
			}
		}
		if truth < res.Answer.Lo || truth > res.Answer.Hi {
			t.Fatalf("interval [%d,%d] misses truth %d (invariant I7)",
				res.Answer.Lo, res.Answer.Hi, truth)
		}
		sumProbErr += math.Abs(res.Answer.Expected - float64(truth))
		sumNaiveErr += math.Abs(float64(res.NaiveCount) - float64(truth))
	}
	if sumProbErr >= sumNaiveErr {
		t.Errorf("expected-value error %v should beat naive error %v", sumProbErr, sumNaiveErr)
	}
}

// A user cloaked to a segment half inside the query may be counted
// (invariant I7): the user enters Hi, not Lo, with half the segment's
// length inside.
func TestPublicRangeCountSegmentRegion(t *testing.T) {
	s := newServer(t)
	if err := s.UpdatePrivate(1, geo.R(0.5, 0.2, 0.5, 0.8)); err != nil {
		t.Fatal(err)
	}
	res, err := s.PublicRangeCount(PublicRangeCountQuery{Query: geo.R(0.4, 0.5, 0.6, 0.9)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer.Lo != 0 || res.Answer.Hi != 1 {
		t.Errorf("interval = [%d,%d], want [0,1]", res.Answer.Lo, res.Answer.Hi)
	}
	if math.Abs(res.Answer.Expected-0.5) > 1e-12 {
		t.Errorf("Expected = %v, want 0.5", res.Answer.Expected)
	}
}

func TestPublicRangeCountEmpty(t *testing.T) {
	s := newServer(t)
	res, err := s.PublicRangeCount(PublicRangeCountQuery{Query: geo.R(0, 0, 1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer.Expected != 0 || res.Answer.Hi != 0 || res.NaiveCount != 0 {
		t.Errorf("empty server count = %+v", res)
	}
}

func TestPublicNNValidation(t *testing.T) {
	s := newServer(t)
	if _, err := s.PublicNN(PublicNNQuery{From: geo.Pt(math.NaN(), 0)}); err == nil {
		t.Error("NaN query point accepted")
	}
}

func TestPublicNNEmpty(t *testing.T) {
	s := newServer(t)
	res, err := s.PublicNN(PublicNNQuery{From: geo.Pt(0.5, 0.5)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 0 {
		t.Error("candidates from empty server")
	}
}

func TestPublicNNFigure6bShape(t *testing.T) {
	// Figure 6b: one region strictly dominating others. Users A,B,C far,
	// D close, E,F overlapping the possible range.
	s := newServer(t)
	q := geo.Pt(0.5, 0.5)
	put := func(id uint64, r geo.Rect) {
		if err := s.UpdatePrivate(id, r); err != nil {
			t.Fatal(err)
		}
	}
	put(1, geo.R(0.9, 0.9, 1.0, 1.0))     // A: far — pruned
	put(2, geo.R(0.0, 0.9, 0.1, 1.0))     // B: far — pruned
	put(3, geo.R(0.0, 0.0, 0.08, 0.08))   // C: far — pruned
	put(4, geo.R(0.52, 0.52, 0.58, 0.58)) // D: close, MaxDist small
	put(5, geo.R(0.4, 0.35, 0.6, 0.55))   // E: overlaps D's range
	put(6, geo.R(0.55, 0.4, 0.75, 0.6))   // F: overlaps too

	res, err := s.PublicNN(PublicNNQuery{From: q, Samples: 4000, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if res.PrunedCount != 3 {
		t.Errorf("PrunedCount = %d, want 3 (A, B, C eliminated)", res.PrunedCount)
	}
	ids := map[uint64]bool{}
	var sum float64
	for _, c := range res.Candidates {
		ids[c.ID] = true
		sum += c.Prob
	}
	if !ids[4] || !ids[5] || !ids[6] || len(ids) != 3 {
		t.Errorf("candidates = %v, want {4,5,6}", res.Candidates)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %v", sum)
	}
	if res.Best.ID == 0 || res.Best.Prob <= 0 {
		t.Errorf("Best = %v", res.Best)
	}
	if len(res.CandidateRegions) != 3 {
		t.Errorf("CandidateRegions = %d entries", len(res.CandidateRegions))
	}
	// Candidates sorted by decreasing probability.
	for i := 1; i < len(res.Candidates); i++ {
		if res.Candidates[i].Prob > res.Candidates[i-1].Prob {
			t.Error("candidates not sorted by probability")
		}
	}
}

// Invariant I8: pruned users can never be the true nearest. Verified by
// brute force against the known exact locations.
func TestPublicNNPruningSoundness(t *testing.T) {
	s := newServer(t)
	exact := loadPrivateUsers(t, s, 500, 0.03, 17)
	src := rng.New(19)
	for trial := 0; trial < 20; trial++ {
		q := geo.Pt(src.Float64(), src.Float64())
		res, err := s.PublicNN(PublicNNQuery{From: q, Samples: 200, Seed: uint64(trial + 1)})
		if err != nil {
			t.Fatal(err)
		}
		// The user whose exact location is truly nearest must be a candidate.
		bestD := math.Inf(1)
		var bestID uint64
		for i, p := range exact {
			if d := q.Dist2(p); d < bestD {
				bestD, bestID = d, uint64(i+1)
			}
		}
		if _, ok := res.CandidateRegions[bestID]; !ok {
			t.Fatalf("trial %d: true nearest user %d was pruned", trial, bestID)
		}
	}
}

func TestPublicNNDeterministicSeed(t *testing.T) {
	s := newServer(t)
	loadPrivateUsers(t, s, 100, 0.05, 23)
	q := PublicNNQuery{From: geo.Pt(0.5, 0.5), Samples: 1000, Seed: 5}
	a, err := s.PublicNN(q)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := s.PublicNN(q)
	if len(a.Candidates) != len(b.Candidates) {
		t.Fatal("nondeterministic candidates")
	}
	for i := range a.Candidates {
		if a.Candidates[i] != b.Candidates[i] {
			t.Fatal("nondeterministic probabilities with fixed seed")
		}
	}
}

func TestPrivateCountQuery(t *testing.T) {
	s := newServer(t)
	// Querier cloaked in the center; two other users nearby, one far.
	if err := s.UpdatePrivate(1, geo.R(0.45, 0.45, 0.55, 0.55)); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdatePrivate(2, geo.R(0.5, 0.5, 0.6, 0.6)); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdatePrivate(3, geo.R(0.9, 0.9, 1, 1)); err != nil {
		t.Fatal(err)
	}
	ans, err := s.PrivateCount(PrivateCountQuery{
		Region: geo.R(0.45, 0.45, 0.55, 0.55), Radius: 0.1, ExcludeID: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Hi != 1 {
		t.Errorf("Hi = %d, want 1 (user 2 possible, user 3 out of reach)", ans.Hi)
	}
	if ans.Expected <= 0 || ans.Expected > 1 {
		t.Errorf("Expected = %v", ans.Expected)
	}
	// Validation.
	if _, err := s.PrivateCount(PrivateCountQuery{Region: geo.Rect{Min: geo.Pt(1, 1)}, Radius: 0.1}); err == nil {
		t.Error("invalid region accepted")
	}
	if _, err := s.PrivateCount(PrivateCountQuery{Region: geo.R(0, 0, 0.1, 0.1), Radius: -2}); err == nil {
		t.Error("negative radius accepted")
	}
}

func BenchmarkPublicRangeCount(b *testing.B) {
	s := newServer(b)
	loadPrivateUsers(b, s, 10000, 0.03, 1)
	q := PublicRangeCountQuery{Query: geo.R(0.4, 0.4, 0.6, 0.6)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.PublicRangeCount(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPublicNN(b *testing.B) {
	s := newServer(b)
	loadPrivateUsers(b, s, 10000, 0.03, 2)
	q := PublicNNQuery{From: geo.Pt(0.5, 0.5), Samples: 1000, Seed: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.PublicNN(q); err != nil {
			b.Fatal(err)
		}
	}
}

// The indexed count path must be exactly equivalent to the full scan.
func TestPublicRangeCountIndexEquivalence(t *testing.T) {
	s := newServer(t)
	loadPrivateUsers(t, s, 2000, 0.04, 31)
	src := rng.New(37)
	for trial := 0; trial < 40; trial++ {
		q := PublicRangeCountQuery{Query: geo.RectAround(
			geo.Pt(src.Float64(), src.Float64()), 0.02+0.2*src.Float64()).Clip(world)}
		a, err := s.PublicRangeCount(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.PublicRangeCountScan(q)
		if err != nil {
			t.Fatal(err)
		}
		if a.NaiveCount != b.NaiveCount || a.Answer.Lo != b.Answer.Lo ||
			a.Answer.Hi != b.Answer.Hi {
			t.Fatalf("indexed %+v != scan %+v", a, b)
		}
		if math.Abs(a.Answer.Expected-b.Answer.Expected) > 1e-9 {
			t.Fatalf("indexed E=%v != scan E=%v", a.Answer.Expected, b.Answer.Expected)
		}
	}
	// Churn (moves + removals) keeps them equivalent.
	for i := 0; i < 500; i++ {
		id := uint64(src.Intn(2000)) + 1
		if src.Float64() < 0.1 {
			s.RemovePrivate(id)
		} else {
			c := geo.Pt(src.Float64(), src.Float64())
			s.UpdatePrivate(id, geo.RectAround(c, 0.03).Clip(world))
		}
	}
	q := PublicRangeCountQuery{Query: geo.R(0.3, 0.3, 0.7, 0.7)}
	a, _ := s.PublicRangeCount(q)
	b, _ := s.PublicRangeCountScan(q)
	if a.NaiveCount != b.NaiveCount || math.Abs(a.Answer.Expected-b.Answer.Expected) > 1e-9 {
		t.Fatalf("post-churn: indexed %+v != scan %+v", a, b)
	}
}

func BenchmarkPublicRangeCountScan(b *testing.B) {
	s := newServer(b)
	loadPrivateUsers(b, s, 10000, 0.03, 1)
	q := PublicRangeCountQuery{Query: geo.R(0.45, 0.45, 0.55, 0.55)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.PublicRangeCountScan(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPublicRangeCountIndexedSmallQuery(b *testing.B) {
	s := newServer(b)
	loadPrivateUsers(b, s, 10000, 0.03, 1)
	q := PublicRangeCountQuery{Query: geo.R(0.45, 0.45, 0.55, 0.55)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.PublicRangeCount(q); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNNSeedDistinguishesDiagonalPoints pins the seed-derivation fix for
// PublicNN's Monte-Carlo sampler. The old derivation xor-folded the two
// coordinate bit patterns, so every diagonal point (a, a) collapsed to the
// same seed and drew the same sample sequence. The splitmix-style mixer
// must give distinct, nonzero seeds — and distinct rng streams — for
// distinct query points, diagonal or not.
func TestNNSeedDistinguishesDiagonalPoints(t *testing.T) {
	pts := []geo.Point{
		geo.Pt(0.1, 0.1), geo.Pt(0.2, 0.2), geo.Pt(0.3, 0.3),
		geo.Pt(0.5, 0.5), geo.Pt(0.9, 0.9),
		geo.Pt(0.1, 0.2), geo.Pt(0.2, 0.1), // asymmetric pair: order matters
	}
	seeds := map[uint64]geo.Point{}
	for _, p := range pts {
		s := nnSeed(p)
		if s == 0 {
			t.Errorf("nnSeed(%v) = 0; zero seed would fall back to a fixed stream", p)
		}
		if prev, dup := seeds[s]; dup {
			t.Errorf("nnSeed collision: %v and %v both derive %#x", prev, p, s)
		}
		seeds[s] = p
	}
	// Distinct seeds must actually drive distinct sample streams.
	a := rng.New(nnSeed(geo.Pt(0.25, 0.25)))
	b := rng.New(nnSeed(geo.Pt(0.75, 0.75)))
	same := 0
	for i := 0; i < 8; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same == 8 {
		t.Error("diagonal points (0.25,0.25) and (0.75,0.75) drew identical rng streams")
	}
}

// TestPublicNNSeededVsDerived: an explicit Seed must override derivation, and
// derived seeds at distinct diagonal points must be usable end to end.
func TestPublicNNDerivedSeedsDiffer(t *testing.T) {
	s := newServer(t)
	loadPrivateUsers(t, s, 200, 0.08, 3)
	// Two diagonal query points; with the old xor-fold both derived seed 0.
	r1, err := s.PublicNN(PublicNNQuery{From: geo.Pt(0.3, 0.3), Samples: 64})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.PublicNN(PublicNNQuery{From: geo.Pt(0.7, 0.7), Samples: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Candidates) == 0 && len(r2.Candidates) == 0 {
		t.Fatal("both NN queries returned nothing; data load failed")
	}
}
