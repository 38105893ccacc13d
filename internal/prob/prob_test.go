package prob

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/geo"
	"repro/internal/rng"
)

func TestOverlap(t *testing.T) {
	square := geo.R(0, 0, 2, 2)
	cases := []struct {
		region, query geo.Rect
		want          float64
	}{
		{square, geo.R(0, 0, 2, 2), 1},            // full overlap
		{square, geo.R(0, 0, 1, 2), 0.5},          // half
		{square, geo.R(0, 0, 1, 1), 0.25},         // quarter
		{square, geo.R(5, 5, 6, 6), 0},            // disjoint
		{square, geo.R(-1, -1, 3, 3), 1},          // query contains region
		{square, geo.R(1, 1, 1.5, 1.5), 1.0 / 16}, // interior sliver
		// Segments score the share of their length inside the query,
		// whichever end their Min corner lies at.
		{geo.R(0.5, 0.2, 0.5, 0.8), geo.R(0.4, 0.5, 0.6, 0.9), 0.5},
		{geo.R(0.5, 0.45, 0.5, 2), geo.R(0.4, 0.4, 0.6, 0.5), 0.05 / 1.55},
		{geo.R(0.2, 0.5, 0.6, 0.5), geo.R(0.4, 0.4, 0.8, 0.6), 0.5},
		{geo.R(0.2, 0.5, 0.6, 0.5), geo.R(0.4, 0.6, 0.8, 0.9), 0}, // beside the query
		{geo.R(0.5, 0.2, 0.5, 0.8), geo.R(0.5, 0, 1, 1), 1},       // on its edge
	}
	for _, c := range cases {
		if got := Overlap(c.region, c.query); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Overlap(%v, %v) = %v, want %v", c.region, c.query, got, c.want)
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

// eachSweepPath calls run once through the vector kernel (when the CPU
// check selected it) and once with the kernel forced off, through the
// portable loop alone.
func eachSweepPath(run func(path string)) {
	vector := useAVX2
	defer func() { useAVX2 = vector }()
	for _, path := range []struct {
		name string
		on   bool
	}{{"vector", vector}, {"portable", false}} {
		useAVX2 = path.on
		run(path.name)
	}
}

// TestPoissonBinomialMatchesFlushedReference runs the kernel against the
// user-at-a-time reference on seeded vectors of every shape its rewrites
// special-case: certain and impossible users anywhere in the order,
// probabilities whose products underflow at once or land exactly on the
// flush threshold, users that barely move the PDF, and the sorted,
// 18 %-certain shape of a large-k count. Lengths 1–12 give live supports
// with every remainder modulo the vector kernel's four lanes, and
// supports too short for one full block; every case runs through both
// sweep paths.
func TestPoissonBinomialMatchesFlushedReference(t *testing.T) {
	kinds := []struct {
		name string
		draw func(src *rng.Source) float64
	}{
		{"zero", func(*rng.Source) float64 { return 0 }},
		{"one", func(*rng.Source) float64 { return 1 }},
		{"tiny", func(*rng.Source) float64 { return 1e-300 }},
		{"near-one", func(*rng.Source) float64 { return 1 - 1e-12 }},
		// At n = 1022 the top entry is 0.5¹⁰²² = 2⁻¹⁰²², the flush
		// threshold itself: kept, not flushed.
		{"half", func(*rng.Source) float64 { return 0.5 }},
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
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 16, 17, 64, 65, 255, 1000, 1001, 1022, 3000}
	eachSweepPath(func(path string) {
		t.Run(path, func(t *testing.T) {
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
		})
	})
}

// TestVectorKernelSelected holds the CPU check to the operating system's
// own report: where /proc/cpuinfo lists avx2, the vector kernel must be
// selected, or a wrong check would silently fall back to the portable
// loop.
func TestVectorKernelSelected(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("no AVX2 kernel to select on %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		if slices.Contains(strings.Fields(flags), "avx2") && !useAVX2 {
			t.Fatal("/proc/cpuinfo lists avx2, but the vector kernel is not selected")
		}
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}

// FuzzPoissonBinomial reads each byte as one user's probability — 0 and
// 255 are the impossible and the certain user, 1 and 254 the extremes
// 1e-300 and 1 − 1e-12, anything else b/255 — and holds the kernel to the
// flushed reference, and its two sweep paths to the same bits.
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
		var pdfs [][]float64
		eachSweepPath(func(string) { pdfs = append(pdfs, PoissonBinomial(probs)) })
		for i := range pdfs[0] {
			if math.Float64bits(pdfs[0][i]) != math.Float64bits(pdfs[1][i]) {
				t.Fatalf("pdf[%d]: vector %v, portable %v", i, pdfs[0][i], pdfs[1][i])
			}
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
	eachSweepPath(func(path string) {
		b.Run(path, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pdfSink = PoissonBinomial(probs)
			}
		})
	})
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
