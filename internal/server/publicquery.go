package server

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/geo"
	"repro/internal/prob"
	"repro/internal/trace"
)

// PublicRangeCountQuery is a public query over private data (Figure 6a):
// "how many mobile users are inside this rectangle?". The querier knows
// its exact rectangle; the server knows only cloaked regions.
type PublicRangeCountQuery struct {
	Query geo.Rect
}

// PublicRangeCountResult bundles the paper's answer formats plus the naive
// strawman for comparison.
type PublicRangeCountResult struct {
	// Answer carries the expected value, the interval [Lo,Hi], and the PDF.
	Answer prob.CountAnswer
	// NaiveCount treats every cloaked region as a solid object and counts
	// all regions overlapping the query — the paper's "totally inaccurate"
	// baseline (it would report 5 in Figure 6a where the truth is ≈2.7).
	NaiveCount int
}

// validate checks the query parameters (shared with BatchQuery).
func (q PublicRangeCountQuery) validate() error {
	if !q.Query.Valid() {
		return fmt.Errorf("server: invalid query %v", q.Query)
	}
	return nil
}

// PublicRangeCount evaluates the query. The region index prunes users whose
// cloaked regions cannot intersect the query, so the cost scales with the
// overlapping population rather than with everyone (PublicRangeCountScan is
// the full-scan baseline).
func (s *Server) PublicRangeCount(q PublicRangeCountQuery) (PublicRangeCountResult, error) {
	return s.PublicRangeCountCtx(context.Background(), q)
}

// PublicRangeCountCtx is PublicRangeCount under a context (trace): the
// count answer under the public_count class span.
func (s *Server) PublicRangeCountCtx(ctx context.Context, q PublicRangeCountQuery) (PublicRangeCountResult, error) {
	if err := q.validate(); err != nil {
		return PublicRangeCountResult{}, err
	}
	r := s.beginSingle(ctx, s.met.publicCount)
	res := s.answerCount(q.Query, r.sc)
	s.endCount(r, res.NaiveCount)
	return res, nil
}

// answerCount answers one validated count rectangle, asked alone or as a
// batch entry: the count kernel's pairs, folded after the read lock is
// released.
func (s *Server) answerCount(query geo.Rect, sc *batchScratch) PublicRangeCountResult {
	return sc.foldCount(s.countPairs(query, sc))
}

// countPairs is the public-count kernel (Figure 6a): it gathers the
// (user, overlap probability) pairs with positive overlap into sc.pairs
// from one probe of the region index, whose hits carry each region read
// in place from its slot. The read lock is held across the probe and the
// overlap tests, never across the fold. Pair order is a probe artifact
// and carries no meaning: every consumer sorts before it accumulates
// (foldCount) or emits (PublicCountProbs). The pair count — the n its PDF
// fold costs O(n²) in — is observed in lbs_public_count_users.
func (s *Server) countPairs(query geo.Rect, sc *batchScratch) []UserProb {
	s.met.publicCountQs.Inc()
	s.mu.RLock()
	hits := s.privIdx.QueryHits(query, sc.hits[:0])
	pairs := sc.pairs[:0]
	for _, h := range hits {
		if p := prob.Overlap(h.Region, query); p > 0 {
			pairs = append(pairs, UserProb{ID: h.ID, P: p})
		}
	}
	s.mu.RUnlock()
	sc.hits, sc.pairs = hits, pairs
	s.met.countUsers.Observe(float64(len(pairs)))
	return pairs
}

// endCount closes a single count query that saw naive overlapping users.
func (s *Server) endCount(r singleQuery, naive int) {
	if r.sp.Recording() {
		r.sp.SetAttrs(trace.Int("naive_count", int64(naive)))
	}
	s.endSingle(r)
}

// UserProb pairs a user id with her region's overlap probability for one
// query rectangle — the shard-local half of a probabilistic count.
type UserProb struct {
	ID uint64
	P  float64
}

// PublicCountProbs evaluates the partial public count this server can
// answer: the (id, probability) pairs of its resident users with positive
// overlap, sorted by id. The routing tier gathers the pairs from every
// shard owning a tile of the query, deduplicates replicated users (a
// replica stores the same region, so its probability is bit-identical),
// and folds the probabilities through the same sort-then-accumulate rule
// PublicRangeCount applies — producing a bit-identical PDF.
func (s *Server) PublicCountProbs(q PublicRangeCountQuery) ([]UserProb, error) {
	return s.PublicCountProbsCtx(context.Background(), q)
}

// PublicCountProbsCtx is PublicCountProbs under a context (trace): the
// count kernel's pairs, copied out of the scratch.
func (s *Server) PublicCountProbsCtx(ctx context.Context, q PublicRangeCountQuery) ([]UserProb, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	r := s.beginSingle(ctx, s.met.publicCount)
	found := s.countPairs(q.Query, r.sc)
	pairs := make([]UserProb, len(found))
	copy(pairs, found)
	slices.SortFunc(pairs, func(a, b UserProb) int { return cmp.Compare(a.ID, b.ID) })
	s.endCount(r, len(pairs))
	return pairs, nil
}

// CombineCountProbs folds deduplicated per-user probabilities into the
// final count answer, exactly as PublicRangeCount does: probabilities
// are sorted before accumulation so partition order cannot influence the
// floating-point result. The pairs must already be unique per user.
func CombineCountProbs(pairs []UserProb) PublicRangeCountResult {
	return new(batchScratch).foldCount(pairs)
}

// PublicRangeCountScan is the unindexed baseline: the same answer from a
// full scan of the private store, kept as the reference of the
// region-index equivalence tests and the ablation (experiment E15).
// Production callers use PublicRangeCount.
func (s *Server) PublicRangeCountScan(q PublicRangeCountQuery) (PublicRangeCountResult, error) {
	if err := q.validate(); err != nil {
		return PublicRangeCountResult{}, err
	}
	records := s.privateSnapshot()
	probs := make([]float64, 0, len(records))
	for _, rec := range records {
		if p := prob.Overlap(rec.Region, q.Query); p > 0 {
			probs = append(probs, p)
		}
	}
	sort.Float64s(probs)
	return PublicRangeCountResult{Answer: prob.RangeCount(probs), NaiveCount: len(probs)}, nil
}

// PublicNNQuery is a public nearest-neighbor query over private data
// (Figure 6b): a public object (e.g. a gas station) asks for its nearest
// mobile user, e.g. to send an e-coupon.
type PublicNNQuery struct {
	From geo.Point
	// Samples controls the Monte-Carlo probability estimation
	// (default 2000).
	Samples int
	// Seed makes the estimate reproducible (default derived from From).
	Seed uint64
}

// PublicNNResult carries all three answer formats of Figure 6b.
type PublicNNResult struct {
	// Candidates are the users that could be nearest, with probabilities
	// (the PDF format), sorted by decreasing probability.
	Candidates []prob.NNProb
	// Best is the single most likely nearest user.
	Best prob.NNProb
	// CandidateRegions maps candidate ids to their cloaked regions, for
	// clients that need the geometry.
	CandidateRegions map[uint64]geo.Rect
	// PrunedCount is how many users min–max dominance eliminated (targets
	// A, B, C in Figure 6b).
	PrunedCount int
}

// PublicNN evaluates the query. Candidate selection follows Figure 6b
// exactly: with T = min over users of MaxDist(From, region), every user
// whose MinDist exceeds T is eliminated — some user is certainly closer
// wherever the eliminated user actually is (invariant I8). Probabilities
// for the survivors are estimated by seeded Monte Carlo under the uniform-
// position assumption.
func (s *Server) PublicNN(q PublicNNQuery) (PublicNNResult, error) {
	return s.PublicNNCtx(context.Background(), q)
}

// PublicNNCtx is PublicNN under a context (trace).
func (s *Server) PublicNNCtx(ctx context.Context, q PublicNNQuery) (PublicNNResult, error) {
	if !q.From.Valid() {
		return PublicNNResult{}, fmt.Errorf("server: invalid query point %v", q.From)
	}
	if !s.world.Contains(q.From) {
		return PublicNNResult{}, fmt.Errorf("server: query point %v outside world", q.From)
	}
	s.met.publicNNQs.Inc()
	sp, _ := s.met.publicNN.Start(ctx, s.tracer)
	defer sp.End()
	records := s.privateSnapshot()
	if len(records) == 0 {
		return PublicNNResult{CandidateRegions: map[uint64]geo.Rect{}}, nil
	}

	bound := math.Inf(1)
	for _, rec := range records {
		if d := geo.MaxDist2(q.From, rec.Region); d < bound {
			bound = d
		}
	}
	var cands []prob.Candidate
	regions := make(map[uint64]geo.Rect)
	for _, rec := range records {
		if geo.MinDist2(q.From, rec.Region) <= bound {
			cands = append(cands, prob.Candidate{ID: rec.ID, Region: rec.Region})
			regions[rec.ID] = rec.Region
		}
	}

	samples := q.Samples
	if samples <= 0 {
		samples = 2000
	}
	seed := q.Seed
	if seed == 0 {
		seed = nnSeed(q.From)
	}
	probs := prob.NNProbabilities(q.From, cands, samples, seed)
	sort.Slice(probs, func(i, j int) bool {
		if probs[i].Prob != probs[j].Prob {
			return probs[i].Prob > probs[j].Prob
		}
		return probs[i].ID < probs[j].ID
	})
	res := PublicNNResult{
		Candidates:       probs,
		CandidateRegions: regions,
		PrunedCount:      len(records) - len(cands),
	}
	if best, ok := prob.Best(probs); ok {
		res.Best = best
	}
	return res, nil
}

// nnSeed derives the default Monte-Carlo seed from the query point by
// folding both coordinates through a splitmix64-style finalizer. A plain
// XOR of the raw bits is degenerate: every point with X == Y (the whole
// diagonal, origin included) cancels to seed 0 and silently shares one
// sample sequence. Sequential folding is asymmetric in the coordinates,
// so distinct points — diagonal or not — draw distinct sequences.
func nnSeed(p geo.Point) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	h = mix64(h ^ math.Float64bits(p.X))
	h = mix64(h ^ math.Float64bits(p.Y))
	return h
}

// mix64 is the splitmix64 finalizer: a cheap bijective bit mixer.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// PrivateCountQuery is the reduction the paper mentions for private queries
// over private data: an anonymized user asks how many other mobile users
// are within Radius of her — the server sees only her cloaked region, so
// the effective query area is the region expanded by Radius, and the answer
// is probabilistic on both sides.
type PrivateCountQuery struct {
	Region geo.Rect
	Radius float64
	// ExcludeID drops the querying user from the count (she would otherwise
	// always contribute probability 1 to her own expanded region).
	ExcludeID uint64
}

// PrivateCount evaluates the reduced query: a public count over the
// expanded region (and recorded as one), minus the querier herself. The
// interval semantics are conservative: Hi counts every user who could
// possibly be in range of any position of the querier.
func (s *Server) PrivateCount(q PrivateCountQuery) (prob.CountAnswer, error) {
	if !q.Region.Valid() {
		return prob.CountAnswer{}, fmt.Errorf("server: invalid region %v", q.Region)
	}
	if q.Radius < 0 || math.IsNaN(q.Radius) {
		return prob.CountAnswer{}, fmt.Errorf("server: invalid radius %g", q.Radius)
	}
	expanded := q.Region.Expand(q.Radius)
	r := s.beginSingle(context.Background(), s.met.publicCount)
	pairs := slices.DeleteFunc(s.countPairs(expanded, r.sc), func(up UserProb) bool { return up.ID == q.ExcludeID })
	ans := r.sc.foldCount(pairs).Answer
	s.endCount(r, len(pairs))
	return ans, nil
}
