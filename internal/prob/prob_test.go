package prob

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geo"
	"repro/internal/rng"
)

func TestOverlap(t *testing.T) {
	region := geo.R(0, 0, 2, 2)
	cases := []struct {
		query geo.Rect
		want  float64
	}{
		{geo.R(0, 0, 2, 2), 1},            // full overlap
		{geo.R(0, 0, 1, 2), 0.5},          // half
		{geo.R(0, 0, 1, 1), 0.25},         // quarter
		{geo.R(5, 5, 6, 6), 0},            // disjoint
		{geo.R(-1, -1, 3, 3), 1},          // query contains region
		{geo.R(1, 1, 1.5, 1.5), 1.0 / 16}, // interior sliver
	}
	for _, c := range cases {
		if got := Overlap(region, c.query); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Overlap(%v) = %v, want %v", c.query, got, c.want)
		}
	}
}

func TestOverlapDegenerateRegion(t *testing.T) {
	pt := geo.PointRect(geo.Pt(1, 1))
	if got := Overlap(pt, geo.R(0, 0, 2, 2)); got != 1 {
		t.Errorf("point inside query = %v, want 1", got)
	}
	if got := Overlap(pt, geo.R(5, 5, 6, 6)); got != 0 {
		t.Errorf("point outside query = %v, want 0", got)
	}
}

func TestPoissonBinomialKnownValues(t *testing.T) {
	// Two fair coins: P = [0.25, 0.5, 0.25].
	pdf := PoissonBinomial([]float64{0.5, 0.5})
	want := []float64{0.25, 0.5, 0.25}
	for i := range want {
		if math.Abs(pdf[i]-want[i]) > 1e-12 {
			t.Errorf("pdf[%d] = %v, want %v", i, pdf[i], want[i])
		}
	}
	// Certain events shift the distribution.
	pdf = PoissonBinomial([]float64{1, 1, 0.5})
	if math.Abs(pdf[2]-0.5) > 1e-12 || math.Abs(pdf[3]-0.5) > 1e-12 {
		t.Errorf("pdf with certainties = %v", pdf)
	}
	// Empty input: P(0 successes) = 1.
	pdf = PoissonBinomial(nil)
	if len(pdf) != 1 || pdf[0] != 1 {
		t.Errorf("empty pdf = %v", pdf)
	}
}

// The paper's Figure 6a worked example: probabilities 1, .75, .5, .2, .25
// must give expected value 2.7 and interval [1, 5].
func TestPaperFigure6aExample(t *testing.T) {
	ans := RangeCount([]float64{1, 0.75, 0.5, 0.2, 0.25, 0})
	if math.Abs(ans.Expected-2.7) > 1e-12 {
		t.Errorf("Expected = %v, want 2.7", ans.Expected)
	}
	if ans.Lo != 1 || ans.Hi != 5 {
		t.Errorf("interval = [%d,%d], want [1,5]", ans.Lo, ans.Hi)
	}
	if math.Abs(ans.Mean()-2.7) > 1e-9 {
		t.Errorf("PDF mean = %v, want 2.7", ans.Mean())
	}
	// PDF sums to 1 and P(count=0) = 0 because one user is certain.
	sum := 0.0
	for _, p := range ans.PDF {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("PDF sum = %v", sum)
	}
	if ans.PDF[0] != 0 {
		t.Errorf("P(0) = %v, want 0", ans.PDF[0])
	}
	if ans.ProbAtLeast(1) < 1-1e-9 {
		t.Errorf("P(≥1) = %v, want 1", ans.ProbAtLeast(1))
	}
	if ans.ProbAtLeast(6) != 0 {
		t.Errorf("P(≥6) = %v, want 0", ans.ProbAtLeast(6))
	}
}

func TestRangeCountClamping(t *testing.T) {
	ans := RangeCount([]float64{-0.5, 1.5, math.NaN(), 0.5})
	// -0.5 -> 0 (dropped), 1.5 -> 1, NaN -> 0 (dropped), 0.5 stays.
	if ans.Lo != 1 || ans.Hi != 2 {
		t.Errorf("clamped interval = [%d,%d], want [1,2]", ans.Lo, ans.Hi)
	}
	if math.Abs(ans.Expected-1.5) > 1e-12 {
		t.Errorf("clamped Expected = %v, want 1.5", ans.Expected)
	}
}

func TestCountAnswerMode(t *testing.T) {
	ans := RangeCount([]float64{0.9, 0.9, 0.9})
	if ans.Mode() != 3 {
		t.Errorf("Mode = %d, want 3", ans.Mode())
	}
	if ans.String() == "" {
		t.Error("empty String")
	}
}

func TestCountAnswerProbAtLeastNegative(t *testing.T) {
	ans := RangeCount([]float64{0.5})
	if got := ans.ProbAtLeast(-3); math.Abs(got-1) > 1e-12 {
		t.Errorf("ProbAtLeast(-3) = %v, want 1", got)
	}
}

// naivePoissonBinomial is the user-at-a-time recurrence PoissonBinomial
// rewrites. With flushed set it stores +0 for every entry below 2⁻¹⁰²²,
// which is PoissonBinomial's contract; without, it is the plain
// recurrence the flush is bounded against.
func naivePoissonBinomial(probs []float64, flushed bool) []float64 {
	store := func(v float64) float64 {
		if flushed && v < 0x1p-1022 {
			return 0
		}
		return v
	}
	pdf := make([]float64, 1, len(probs)+1)
	pdf[0] = 1
	for _, p := range probs {
		pdf = append(pdf, 0)
		for j := len(pdf) - 1; j >= 1; j-- {
			pdf[j] = store(float64(pdf[j]*(1-p)) + float64(pdf[j-1]*p))
		}
		pdf[0] = store(pdf[0] * (1 - p))
	}
	return pdf
}

// checkPoissonBinomial holds PoissonBinomial(probs) to its contract: the
// flushed reference's bits, no subnormal entry, and every entry within
// n²·2⁻¹⁰²² of the unflushed recurrence.
func checkPoissonBinomial(probs []float64) error {
	got := PoissonBinomial(probs)
	want := naivePoissonBinomial(probs, true)
	exact := naivePoissonBinomial(probs, false)
	if len(got) != len(want) {
		return fmt.Errorf("len = %d, want %d", len(got), len(want))
	}
	n := float64(len(probs))
	bound := n * n * 0x1p-1022
	for i, v := range got {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			return fmt.Errorf("pdf[%d] = %v, flushed reference %v", i, v, want[i])
		}
		if v > 0 && v < 0x1p-1022 {
			return fmt.Errorf("pdf[%d] = %v is subnormal", i, v)
		}
		if d := math.Abs(v - exact[i]); d > bound {
			return fmt.Errorf("pdf[%d] = %v, unflushed %v: |Δ| = %v > n²·2⁻¹⁰²² = %v", i, v, exact[i], d, bound)
		}
	}
	return nil
}

// TestPoissonBinomialMatchesFlushedReference runs the kernel against the
// user-at-a-time reference on seeded vectors of every shape its rewrites
// special-case: certain and impossible users anywhere in the order,
// probabilities whose products underflow at once, users that barely move
// the PDF, and the sorted, 18 %-certain shape of a large-k count.
func TestPoissonBinomialMatchesFlushedReference(t *testing.T) {
	kinds := []struct {
		name string
		draw func(src *rng.Source) float64
	}{
		{"zero", func(*rng.Source) float64 { return 0 }},
		{"one", func(*rng.Source) float64 { return 1 }},
		{"tiny", func(*rng.Source) float64 { return 1e-300 }},
		{"near-one", func(*rng.Source) float64 { return 1 - 1e-12 }},
		{"uniform", func(src *rng.Source) float64 { return src.Float64() }},
		{"mixed", func(src *rng.Source) float64 {
			return [...]float64{0, 1, 1e-300, 1 - 1e-12, src.Float64()}[src.Intn(5)]
		}},
		{"cloak", func(src *rng.Source) float64 {
			if src.Float64() < 0.18 {
				return 1
			}
			return src.Float64()
		}},
	}
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 64, 65, 255, 1000, 1001, 3000}
	for k, kind := range kinds {
		src := rng.New(uint64(k + 1))
		for _, n := range lengths {
			probs := make([]float64, n)
			for i := range probs {
				probs[i] = kind.draw(src)
			}
			sorted := slices.Clone(probs)
			sort.Float64s(sorted)
			for _, v := range [][]float64{probs, sorted} {
				if err := checkPoissonBinomial(v); err != nil {
					t.Errorf("%s/n=%d/sorted=%v: %v", kind.name, n, slices.IsSorted(v), err)
				}
			}
		}
	}
}

// FuzzPoissonBinomial reads each byte as one user's probability — 0 and
// 255 are the impossible and the certain user, 1 and 254 the extremes
// 1e-300 and 1 − 1e-12, anything else b/255 — and holds the kernel to the
// flushed reference.
func FuzzPoissonBinomial(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 255, 128, 1, 254, 255, 0})
	f.Add(bytes.Repeat([]byte{1, 200, 255, 37}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		probs := make([]float64, len(data))
		for i, b := range data {
			switch b {
			case 1:
				probs[i] = 1e-300
			case 254:
				probs[i] = 1 - 1e-12
			default:
				probs[i] = float64(b) / 255
			}
		}
		if err := checkPoissonBinomial(probs); err != nil {
			t.Fatal(err)
		}
	})
}

// Property: for random probability vectors the PDF sums to 1, its mean
// equals the expected value, and [Lo,Hi] brackets the support (invariant
// I7). Vectors run to 3,000 users, long enough for the PDF's tails to
// reach the subnormal band the kernel flushes.
func TestPropRangeCountConsistency(t *testing.T) {
	f := func(seed uint64, size uint16) bool {
		src := rng.New(seed)
		probs := make([]float64, int(size)%3001)
		for i := range probs {
			probs[i] = float64(src.Intn(256)) / 255
		}
		ans := RangeCount(probs)
		sum := 0.0
		for _, p := range ans.PDF {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		if math.Abs(ans.Mean()-ans.Expected) > 1e-6 {
			return false
		}
		// Support within [Lo, Hi]: P(count < Lo) = P(count > Hi) = 0.
		for i := 0; i < ans.Lo && i < len(ans.PDF); i++ {
			if ans.PDF[i] > 1e-12 {
				return false
			}
		}
		for i := ans.Hi + 1; i < len(ans.PDF); i++ {
			if ans.PDF[i] > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNNProbabilitiesDeterministic(t *testing.T) {
	q := geo.Pt(0, 0)
	cands := []Candidate{
		{ID: 1, Region: geo.R(0.1, 0.1, 0.3, 0.3)},
		{ID: 2, Region: geo.R(0.5, 0.5, 0.9, 0.9)},
	}
	a := NNProbabilities(q, cands, 2000, 7)
	b := NNProbabilities(q, cands, 2000, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different estimates")
		}
	}
}

func TestNNProbabilitiesDominance(t *testing.T) {
	q := geo.Pt(0, 0)
	// Candidate 1 is strictly closer than candidate 2 everywhere.
	cands := []Candidate{
		{ID: 1, Region: geo.R(0.1, 0.1, 0.2, 0.2)},
		{ID: 2, Region: geo.R(0.8, 0.8, 0.9, 0.9)},
	}
	probs := NNProbabilities(q, cands, 5000, 3)
	if probs[0].Prob != 1 || probs[1].Prob != 0 {
		t.Errorf("dominated candidate got probability: %v", probs)
	}
	best, ok := Best(probs)
	if !ok || best.ID != 1 {
		t.Errorf("Best = %v, %v", best, ok)
	}
}

func TestNNProbabilitiesSymmetric(t *testing.T) {
	q := geo.Pt(0.5, 0)
	// Two candidates mirror-symmetric about x=0.5: each should win ≈ half.
	cands := []Candidate{
		{ID: 1, Region: geo.R(0.0, 0.5, 0.4, 0.9)},
		{ID: 2, Region: geo.R(0.6, 0.5, 1.0, 0.9)},
	}
	probs := NNProbabilities(q, cands, 40000, 11)
	sum := probs[0].Prob + probs[1].Prob
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("probabilities sum to %v", sum)
	}
	if math.Abs(probs[0].Prob-0.5) > 0.02 {
		t.Errorf("symmetric candidates: P1 = %v, want ≈0.5", probs[0].Prob)
	}
}

func TestNNProbabilitiesEdgeCases(t *testing.T) {
	if got := NNProbabilities(geo.Pt(0, 0), nil, 100, 1); len(got) != 0 {
		t.Error("empty candidates")
	}
	cands := []Candidate{{ID: 1, Region: geo.PointRect(geo.Pt(0.5, 0.5))}}
	got := NNProbabilities(geo.Pt(0, 0), cands, 0, 1)
	if len(got) != 1 || got[0].Prob != 0 {
		t.Errorf("zero samples should yield zero probs: %v", got)
	}
	if _, ok := Best(nil); ok {
		t.Error("Best of empty reported ok")
	}
}

func TestNNProbabilitiesDegenerateRegions(t *testing.T) {
	// Exact-location users (k=1 cloaks) work: closest point region wins.
	q := geo.Pt(0, 0)
	cands := []Candidate{
		{ID: 1, Region: geo.PointRect(geo.Pt(0.2, 0.2))},
		{ID: 2, Region: geo.PointRect(geo.Pt(0.7, 0.7))},
	}
	probs := NNProbabilities(q, cands, 100, 5)
	if probs[0].Prob != 1 || probs[1].Prob != 0 {
		t.Errorf("degenerate regions: %v", probs)
	}
}

func BenchmarkPoissonBinomial100(b *testing.B) {
	probs := make([]float64, 100)
	for i := range probs {
		probs[i] = float64(i%10) / 10
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PoissonBinomial(probs)
	}
}

// BenchmarkPoissonBinomialCloaked1500 folds a count shaped like the
// large-k analyst workload's: 1,500 users, sorted as the server folds
// them, 18 % wholly inside the query (p = 1) and the rest spread over
// (0, 1) by the golden-ratio sequence. Unlike the 100-user benchmark, its
// PDF tails reach the subnormal band.
func BenchmarkPoissonBinomialCloaked1500(b *testing.B) {
	probs := make([]float64, 1500)
	for i := range probs {
		if i%50 < 9 {
			probs[i] = 1
			continue
		}
		probs[i] = math.Mod(float64(i+1)*0.6180339887498949, 1)
	}
	sort.Float64s(probs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pdfSink = PoissonBinomial(probs)
	}
}

// pdfSink keeps the benchmarked call from being optimised away.
var pdfSink []float64

func BenchmarkNNProbabilities(b *testing.B) {
	q := geo.Pt(0.5, 0.5)
	cands := make([]Candidate, 20)
	for i := range cands {
		f := float64(i) / 20
		cands[i] = Candidate{ID: uint64(i + 1), Region: geo.R(f, f, f+0.1, f+0.1)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NNProbabilities(q, cands, 1000, 1)
	}
}
