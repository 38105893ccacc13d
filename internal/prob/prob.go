// Package prob implements the probabilistic answer machinery of Section
// 6.2.2 (Figure 6): public queries over private (cloaked) data return
// answers as expected values, intervals, or full probability density
// functions, under the paper's stated assumption that the exact location is
// uniformly distributed inside its cloaked region.
//
// The range-count PDF is the Poisson–binomial distribution of the per-user
// overlap probabilities, computed by the exact dynamic-programming
// recurrence with subnormal intermediates flushed to zero. The
// nearest-neighbor probabilities over regions have no convenient closed
// form, so they are estimated by seeded Monte-Carlo sampling (the ablation
// bench quantifies the cost/accuracy trade-off against the DP's exactness).
package prob

import (
	"fmt"
	"math"

	"repro/internal/geo"
	"repro/internal/rng"
)

// Overlap returns P(user ∈ query) for a user uniformly distributed in
// region: the ratio of the overlapped area to the region area (Figure 6a).
// A zero-area region is uniform over its extent instead: a point scores
// 1 or 0 by containment, a segment the share of its length inside the
// query.
func Overlap(region, query geo.Rect) float64 {
	if a := region.Area(); a > 0 {
		return region.OverlapArea(query) / a
	}
	return extentShare(region.Min.X, region.Max.X, query.Min.X, query.Max.X) *
		extentShare(region.Min.Y, region.Max.Y, query.Min.Y, query.Max.Y)
}

// extentShare returns the share of [lo, hi] inside [qlo, qhi]: 1 or 0 by
// containment when lo == hi.
func extentShare(lo, hi, qlo, qhi float64) float64 {
	if lo == hi {
		if lo >= qlo && lo <= qhi {
			return 1
		}
		return 0
	}
	if o := min(hi, qhi) - max(lo, qlo); o > 0 {
		return o / (hi - lo)
	}
	return 0
}

// CountAnswer is the paper's three answer formats for a probabilistic
// range count, bundled: the absolute (expected) value, the interval
// [Lo, Hi], and the PDF over possible counts (PDF[i] = P(count = i)).
type CountAnswer struct {
	Expected float64
	Lo, Hi   int
	PDF      []float64
}

// String implements fmt.Stringer.
func (a CountAnswer) String() string {
	return fmt.Sprintf("E=%.3f range=[%d,%d]", a.Expected, a.Lo, a.Hi)
}

// Mean returns the mean of the PDF; it equals Expected up to rounding and
// is used as a self-check.
func (a CountAnswer) Mean() float64 {
	m := 0.0
	for i, p := range a.PDF {
		m += float64(i) * p
	}
	return m
}

// Mode returns the most likely count.
func (a CountAnswer) Mode() int {
	best, bestP := 0, -1.0
	for i, p := range a.PDF {
		if p > bestP {
			best, bestP = i, p
		}
	}
	return best
}

// ProbAtLeast returns P(count ≥ n).
func (a CountAnswer) ProbAtLeast(n int) float64 {
	if n < 0 {
		n = 0
	}
	s := 0.0
	for i := n; i < len(a.PDF); i++ {
		s += a.PDF[i]
	}
	return s
}

// RangeCount combines per-user inclusion probabilities into a CountAnswer.
// Probabilities outside [0,1] are clamped.
func RangeCount(probs []float64) CountAnswer {
	ans, _ := RangeCountScratch(probs, nil)
	return ans
}

// RangeCountScratch is RangeCount with a reusable clamp buffer: the
// second return value is the (possibly grown) buffer, handed back so a
// caller answering many count queries stops re-allocating the
// intermediate. The PDF always allocates fresh — it escapes into the
// answer. Answer bytes are identical for any buffer value.
func RangeCountScratch(probs, buf []float64) (CountAnswer, []float64) {
	var ans CountAnswer
	clamped := buf[:0]
	for _, p := range probs {
		if math.IsNaN(p) {
			p = 0
		}
		p = math.Min(math.Max(p, 0), 1)
		if p == 0 {
			continue // zero-probability users affect nothing
		}
		clamped = append(clamped, p)
		ans.Expected += p
		if p == 1 {
			ans.Lo++
		}
		ans.Hi++
	}
	ans.PDF = PoissonBinomial(clamped)
	return ans, clamped
}

// minNormal is the smallest positive normal float64. The count kernel
// stores +0 for anything below it.
const minNormal = 0x1p-1022

// flush returns v, or +0 when v is below minNormal.
func flush(v float64) float64 {
	if v < minNormal {
		return 0
	}
	return v
}

// PoissonBinomial returns the distribution of the number of successes
// among independent Bernoulli trials with the given success probabilities,
// each in [0, 1]: out[i] = P(i successes), len(out) = len(probs)+1.
//
// The answer is the recurrence pdf[j] = pdf[j]·(1−p) + pdf[j−1]·p over the
// users in order, with every stored entry below 2⁻¹⁰²² (the subnormal
// band) flushed to +0. The flush moves no entry by more than n²·2⁻¹⁰²² and
// keeps the arithmetic out of the subnormal band, where the CPU takes a
// microcode assist per operation (EXPERIMENTS E24). Everything else here
// is a bit-exact rewrite of that flushed recurrence, O(n²) time at worst:
//   - only the live support pdf[lo..hi] (every nonzero entry) is swept,
//     trimmed of zeros at both ends after each user;
//   - a user with p == 0 is the identity and is skipped; a user with
//     p == 1 moves the PDF one place right exactly, and the recurrence
//     commutes with that move, so such users are counted and applied as
//     one shift at the end.
func PoissonBinomial(probs []float64) []float64 {
	pdf := make([]float64, len(probs)+1)
	pdf[0] = 1
	lo, hi := 0, 0
	certain := 0
	for _, p := range probs {
		switch p {
		case 1:
			certain++
		case 0:
		default:
			sweep(pdf[lo:hi+2], p, 1-p)
			lo, hi = liveSupport(pdf, lo, hi+1)
		}
	}
	if certain > 0 {
		copy(pdf[lo+certain:], pdf[lo:hi+1])
		clear(pdf[lo : lo+certain])
	}
	return pdf
}

// sweep applies one user's step, w[j] = flush(w[j]·q + w[j−1]·p) for
// j = len(w)−1 … 1 and then w[0] = flush(w[0]·q), the entry below w[0]
// being zero. With AVX2 the top full four-entry blocks go four lanes at
// a time and the loop below finishes the rest. The lanes compute exactly
// the scalar step (sweepAVX2), and Go never sets the flush-to-zero or
// denormals-are-zero modes, so both paths round subnormal intermediates
// alike and store the same bits; the loop carries the entry below in a
// register, so each entry is loaded once.
//
// The explicit float64 conversions round each product on its own, so no
// platform fuses a multiply-add and every tier computes the same bits.
func sweep(w []float64, p, q float64) {
	j := len(w) - 1
	if useAVX2 {
		sweepAVX2(w, p, q)
		j %= 4
	}
	cur := w[j]
	for ; j >= 1; j-- {
		below := w[j-1]
		w[j] = flush(float64(cur*q) + float64(below*p))
		cur = below
	}
	w[0] = flush(cur * q)
}

// liveSupport narrows [lo, hi] past zero entries at both ends, never
// below one entry.
func liveSupport(pdf []float64, lo, hi int) (int, int) {
	for lo < hi && pdf[lo] == 0 {
		lo++
	}
	for hi > lo && pdf[hi] == 0 {
		hi--
	}
	return lo, hi
}

// Candidate is a region-cloaked user entering a probabilistic NN query.
type Candidate struct {
	ID     uint64
	Region geo.Rect
}

// NNProb holds the estimated probability that a candidate is the nearest
// user to the query point.
type NNProb struct {
	ID   uint64
	Prob float64
}

// NNProbabilities estimates, for each candidate, the probability that she
// is the nearest user to q, assuming each user is independently uniform in
// her region (Figure 6b). samples Monte-Carlo rounds are drawn from a
// stream seeded with seed, so results are reproducible. Ties (measure-zero
// under continuous positions, but possible with degenerate regions) are
// credited to the earliest candidate.
func NNProbabilities(q geo.Point, cands []Candidate, samples int, seed uint64) []NNProb {
	out := make([]NNProb, len(cands))
	for i, c := range cands {
		out[i].ID = c.ID
	}
	if len(cands) == 0 || samples <= 0 {
		return out
	}
	src := rng.New(seed)
	wins := make([]int, len(cands))
	for s := 0; s < samples; s++ {
		best := -1
		bestD := math.Inf(1)
		for i, c := range cands {
			p := samplePoint(c.Region, src)
			// The explicit best==-1 arm keeps the round well-defined even
			// when every distance overflows to +Inf (a query point at the
			// float range edge): the first candidate wins the tie.
			if d := q.Dist2(p); best == -1 || d < bestD {
				bestD = d
				best = i
			}
		}
		wins[best]++
	}
	for i := range out {
		out[i].Prob = float64(wins[i]) / float64(samples)
	}
	return out
}

// samplePoint draws a uniform point from a rectangle.
func samplePoint(r geo.Rect, src *rng.Source) geo.Point {
	return geo.Pt(src.Range(r.Min.X, r.Max.X), src.Range(r.Min.Y, r.Max.Y))
}

// Best returns the candidate with the highest probability (the paper's
// "only one object with the highest probability" answer format) and false
// when the slice is empty.
func Best(probs []NNProb) (NNProb, bool) {
	if len(probs) == 0 {
		return NNProb{}, false
	}
	best := probs[0]
	for _, p := range probs[1:] {
		if p.Prob > best.Prob {
			best = p
		}
	}
	return best, true
}
