package cloak

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/mobility"
	"repro/internal/privacy"
	"repro/internal/pyramid"
	"repro/internal/rng"
)

var world = geo.R(0, 0, 1, 1)

// population builds a grid-backed population and a parallel pyramid over
// the same users, with IDs 1..n. It returns the raw points too.
func population(t testing.TB, n int, dist mobility.Distribution, seed uint64) (GridPopulation, *pyramid.Pyramid, []geo.Point) {
	t.Helper()
	pts, err := mobility.GeneratePoints(mobility.PopulationSpec{
		N: n, World: world, Dist: dist, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	gi, err := grid.New(world, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	pyr, err := pyramid.New(world, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		gi.Upsert(uint64(i+1), p)
		if err := pyr.Insert(uint64(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	return GridPopulation{Index: gi}, pyr, pts
}

// pyramidCount validates a region with the pyramid's conservative
// CountWithin, as the anonymizer does.
func pyramidCount(pyr *pyramid.Pyramid) Validator {
	return func(region geo.Rect, req privacy.Requirement) (int, bool) {
		n := pyr.CountWithin(region)
		return n, n >= req.K
	}
}

func bruteCount(pts []geo.Point, r geo.Rect) int {
	n := 0
	for _, p := range pts {
		if r.Contains(p) {
			n++
		}
	}
	return n
}

// --- Naive cloaker ---

func TestNaiveSatisfiesK(t *testing.T) {
	pop, _, pts := population(t, 5000, mobility.Uniform, 1)
	n := &Naive{Pop: pop}
	for _, k := range []int{1, 5, 50, 500} {
		for i := 0; i < 20; i++ {
			uid := uint64(i*37 + 1)
			loc := pts[uid-1]
			res := n.Cloak(uid, loc, privacy.Requirement{K: k})
			if !res.SatisfiedK {
				t.Fatalf("k=%d user %d: not satisfied: %v", k, uid, res)
			}
			if !res.Region.Contains(loc) {
				t.Fatalf("region does not contain user: %v", res)
			}
			if got := bruteCount(pts, res.Region); got < k {
				t.Fatalf("k=%d region brute count %d", k, got)
			}
			if got := bruteCount(pts, res.Region); got != res.K {
				t.Fatalf("reported K %d != brute %d", res.K, got)
			}
		}
	}
}

func TestNaiveCenterIsUser(t *testing.T) {
	pop, _, pts := population(t, 2000, mobility.Uniform, 2)
	n := &Naive{Pop: pop}
	// Pick an interior user so world clipping cannot shift the center.
	for i, p := range pts {
		if p.X < 0.3 || p.X > 0.7 || p.Y < 0.3 || p.Y > 0.7 {
			continue
		}
		res := n.Cloak(uint64(i+1), p, privacy.Requirement{K: 20})
		if res.Region.Width() > 0.25 {
			continue // clipped after all; skip
		}
		c := res.Region.Center()
		if c.Dist(p) > 1e-9 {
			t.Fatalf("naive center %v != user %v", c, p)
		}
		return // one interior check suffices
	}
	t.Fatal("no interior user found")
}

func TestNaiveMinArea(t *testing.T) {
	pop, _, pts := population(t, 1000, mobility.Uniform, 3)
	n := &Naive{Pop: pop}
	res := n.Cloak(1, pts[0], privacy.Requirement{K: 1, MinArea: 0.04})
	if !res.SatisfiedMinArea || res.Region.Area() < 0.04 {
		t.Fatalf("MinArea not met: %v (area %v)", res, res.Region.Area())
	}
}

func TestNaiveBestEffortImpossibleK(t *testing.T) {
	pop, _, pts := population(t, 50, mobility.Uniform, 4)
	n := &Naive{Pop: pop}
	res := n.Cloak(1, pts[0], privacy.Requirement{K: 1000})
	if res.SatisfiedK {
		t.Fatal("k=1000 cannot be satisfied by 50 users")
	}
	if res.K != 50 {
		t.Fatalf("best effort should cover everyone, K=%d", res.K)
	}
}

func TestNaiveMaxAreaConflictFlagged(t *testing.T) {
	pop, _, pts := population(t, 2000, mobility.Uniform, 5)
	n := &Naive{Pop: pop}
	// k=500 needs ~1/4 of the world; Amax of 1e-6 cannot hold it.
	res := n.Cloak(1, pts[0], privacy.Requirement{K: 500, MaxArea: 1e-6})
	if !res.SatisfiedK {
		t.Fatal("k should be preferred over Amax")
	}
	if res.SatisfiedMaxArea {
		t.Fatal("Amax conflict not flagged")
	}
	if !res.BestEffort() {
		t.Fatal("BestEffort should be true")
	}
}

func TestNaiveK1IsTight(t *testing.T) {
	pop, _, pts := population(t, 500, mobility.Uniform, 6)
	n := &Naive{Pop: pop}
	res := n.Cloak(3, pts[2], privacy.Requirement{K: 1})
	// With k=1 and no area floor the region collapses around the user.
	if res.Region.Diagonal() > 1e-6 {
		t.Fatalf("k=1 region should be (near) degenerate: %v", res.Region)
	}
}

// --- MBR cloaker ---

func TestMBRSatisfiesK(t *testing.T) {
	pop, _, pts := population(t, 3000, mobility.Gaussian, 7)
	m := &MBR{Pop: pop}
	for _, k := range []int{2, 10, 100} {
		for i := 0; i < 20; i++ {
			uid := uint64(i*91 + 5)
			loc := pts[uid-1]
			res := m.Cloak(uid, loc, privacy.Requirement{K: k})
			if !res.SatisfiedK {
				t.Fatalf("k=%d: %v", k, res)
			}
			if !res.Region.Contains(loc) {
				t.Fatal("MBR region does not contain the user")
			}
			if got := bruteCount(pts, res.Region); got != res.K {
				t.Fatalf("reported K %d != brute %d", res.K, got)
			}
		}
	}
}

func TestMBRIsBoundingBoxOfNeighbors(t *testing.T) {
	pop, _, pts := population(t, 1000, mobility.Uniform, 8)
	m := &MBR{Pop: pop}
	uid := uint64(17)
	loc := pts[uid-1]
	res := m.Cloak(uid, loc, privacy.Requirement{K: 10})
	nbrs := pop.KNearest(loc, 10)
	want := geo.PointRect(loc)
	for _, p := range nbrs {
		want = want.UnionPoint(p)
	}
	if !res.Region.Eq(want) {
		t.Fatalf("MBR region %v != neighbors MBR %v", res.Region, want)
	}
	// The defining leak: at least one neighbor on the boundary.
	onEdge := 0
	for _, p := range nbrs {
		if p.X == want.Min.X || p.X == want.Max.X || p.Y == want.Min.Y || p.Y == want.Max.Y {
			onEdge++
		}
	}
	if onEdge == 0 {
		t.Fatal("no neighbor on MBR edge — impossible for a true MBR")
	}
}

func TestMBRMinAreaExpansion(t *testing.T) {
	pop, _, pts := population(t, 3000, mobility.Uniform, 9)
	m := &MBR{Pop: pop}
	res := m.Cloak(1, pts[0], privacy.Requirement{K: 3, MinArea: 0.01})
	if res.Region.Area() < 0.01*0.999 {
		t.Fatalf("MinArea expansion failed: area %v", res.Region.Area())
	}
	if !res.Region.Contains(pts[0]) {
		t.Fatal("expanded MBR lost the user")
	}
}

func TestExpandDelta(t *testing.T) {
	// (1+2d)(2+2d) = 12 -> 4d²+6d+2-12=0 -> d = (-6+sqrt(36+160))/8 = 1
	if d := expandDelta(1, 2, 12); math.Abs(d-1) > 1e-12 {
		t.Fatalf("expandDelta = %v, want 1", d)
	}
	if d := expandDelta(3, 4, 12); d != 0 {
		t.Fatalf("already-large rect should need 0, got %v", d)
	}
	// Degenerate rect (a point) still works: 4d² = target.
	if d := expandDelta(0, 0, 4); math.Abs(d-1) > 1e-12 {
		t.Fatalf("point expandDelta = %v, want 1", d)
	}
}

// --- Quadtree cloaker ---

func TestQuadtreeSatisfiesK(t *testing.T) {
	_, pyr, pts := population(t, 5000, mobility.Uniform, 10)
	q := &Quadtree{Pyr: pyr}
	for _, k := range []int{1, 10, 100, 1000} {
		for i := 0; i < 20; i++ {
			uid := uint64(i*131 + 1)
			loc := pts[uid-1]
			res := q.Cloak(uid, loc, privacy.Requirement{K: k})
			if !res.SatisfiedK {
				t.Fatalf("k=%d: %v", k, res)
			}
			if !res.Region.Contains(loc) {
				t.Fatal("quadtree region does not contain user")
			}
			if got := bruteCount(pts, res.Region); got != res.K {
				t.Fatalf("pyramid count %d != brute %d", res.K, got)
			}
		}
	}
}

func TestQuadtreeRegionIsAlignedCell(t *testing.T) {
	_, pyr, pts := population(t, 2000, mobility.Uniform, 11)
	q := &Quadtree{Pyr: pyr}
	res := q.Cloak(1, pts[0], privacy.Requirement{K: 50})
	// The region must be exactly a pyramid cell: its width is 1/2^l and its
	// min corner is an integer multiple of the width.
	w := res.Region.Width()
	l := math.Log2(1 / w)
	if math.Abs(l-math.Round(l)) > 1e-9 {
		t.Fatalf("region width %v is not a power-of-two fraction", w)
	}
	fx := res.Region.Min.X / w
	fy := res.Region.Min.Y / w
	if math.Abs(fx-math.Round(fx)) > 1e-9 || math.Abs(fy-math.Round(fy)) > 1e-9 {
		t.Fatalf("region %v not aligned to the partition", res.Region)
	}
}

// Space-dependence (invariant I4): two users in the same bottom cell with
// the same requirement get the same region, regardless of exact position.
func TestQuadtreeSpaceDependence(t *testing.T) {
	_, pyr, _ := population(t, 3000, mobility.Gaussian, 12)
	q := &Quadtree{Pyr: pyr}
	bottom := pyr.Height() - 1
	// Construct two synthetic locations in the same bottom cell.
	cell := pyr.CellAt(bottom, geo.Pt(0.5001, 0.5001))
	r := pyr.Rect(cell)
	a := geo.Pt(r.Min.X+r.Width()*0.1, r.Min.Y+r.Height()*0.1)
	b := geo.Pt(r.Min.X+r.Width()*0.9, r.Min.Y+r.Height()*0.9)
	req := privacy.Requirement{K: 30}
	ra := q.Cloak(9001, a, req)
	rb := q.Cloak(9002, b, req)
	if !ra.Region.Eq(rb.Region) {
		t.Fatalf("same-cell users got different regions: %v vs %v", ra.Region, rb.Region)
	}
}

func TestQuadtreeMinArea(t *testing.T) {
	_, pyr, pts := population(t, 5000, mobility.Uniform, 13)
	q := &Quadtree{Pyr: pyr}
	res := q.Cloak(1, pts[0], privacy.Requirement{K: 1, MinArea: 0.2})
	// Cells have areas 1, 1/4, 1/16...; the smallest ≥ 0.2 is 1/4.
	if math.Abs(res.Region.Area()-0.25) > 1e-9 {
		t.Fatalf("quadtree MinArea picked area %v, want 0.25", res.Region.Area())
	}
}

func TestQuadtreeImpossibleK(t *testing.T) {
	_, pyr, pts := population(t, 10, mobility.Uniform, 14)
	q := &Quadtree{Pyr: pyr}
	res := q.Cloak(1, pts[0], privacy.Requirement{K: 100})
	if res.SatisfiedK {
		t.Fatal("k=100 with 10 users")
	}
	if !res.Region.Eq(world) {
		t.Fatalf("best effort should return the whole world, got %v", res.Region)
	}
}

// --- Grid cloaker ---

func TestGridSatisfiesKByMerging(t *testing.T) {
	_, pyr, pts := population(t, 2000, mobility.Gaussian, 15)
	g := &Grid{Pyr: pyr, Level: 5}
	for _, k := range []int{1, 10, 100, 500} {
		for i := 0; i < 15; i++ {
			uid := uint64(i*101 + 3)
			loc := pts[uid-1]
			res := g.Cloak(uid, loc, privacy.Requirement{K: k})
			if !res.SatisfiedK {
				t.Fatalf("k=%d user %d not satisfied: %v", k, uid, res)
			}
			if !res.Region.Contains(loc) {
				t.Fatalf("grid region %v does not contain %v", res.Region, loc)
			}
			if got := bruteCount(pts, res.Region); got != res.K {
				t.Fatalf("grid count %d != brute %d", res.K, got)
			}
		}
	}
}

func TestGridMultiLevelRefines(t *testing.T) {
	_, pyr, pts := population(t, 5000, mobility.Uniform, 16)
	coarse := &Grid{Pyr: pyr, Level: 2}
	fine := &Grid{Pyr: pyr, Level: 2, MultiLevel: true}
	req := privacy.Requirement{K: 5}
	var sumCoarse, sumFine float64
	for i := 0; i < 50; i++ {
		loc := pts[i*59]
		sumCoarse += coarse.Cloak(uint64(i), loc, req).Region.Area()
		sumFine += fine.Cloak(uint64(i), loc, req).Region.Area()
	}
	if sumFine >= sumCoarse {
		t.Fatalf("multi-level refinement did not shrink regions: %v vs %v", sumFine, sumCoarse)
	}
	// Refined regions must still satisfy k.
	for i := 0; i < 50; i++ {
		loc := pts[i*59]
		res := fine.Cloak(uint64(i), loc, req)
		if !res.SatisfiedK {
			t.Fatalf("refined region lost k: %v", res)
		}
	}
}

func TestGridMinAreaRespected(t *testing.T) {
	_, pyr, pts := population(t, 5000, mobility.Uniform, 17)
	g := &Grid{Pyr: pyr, Level: 6, MultiLevel: true}
	res := g.Cloak(1, pts[0], privacy.Requirement{K: 1, MinArea: 0.002})
	if res.Region.Area() < 0.002*0.999 {
		t.Fatalf("grid MinArea violated: %v", res.Region.Area())
	}
}

func TestGridLevelClamping(t *testing.T) {
	_, pyr, pts := population(t, 100, mobility.Uniform, 18)
	// Absurd levels are clamped rather than panicking.
	for _, level := range []int{-3, 0, 99} {
		g := &Grid{Pyr: pyr, Level: level}
		res := g.Cloak(1, pts[0], privacy.Requirement{K: 2})
		if !res.Region.Valid() {
			t.Fatalf("level %d produced invalid region", level)
		}
	}
}

func TestGridNames(t *testing.T) {
	pyr, _ := pyramid.New(world, 4)
	if (&Grid{Pyr: pyr, Level: 3}).Name() != "grid(L3)" {
		t.Error("grid name")
	}
	if (&Grid{Pyr: pyr, Level: 3, MultiLevel: true}).Name() != "grid-ml(L3)" {
		t.Error("grid-ml name")
	}
}

// --- Incremental ---

func TestIncrementalReusesWhileValid(t *testing.T) {
	_, pyr, pts := population(t, 3000, mobility.Uniform, 19)
	q := &Quadtree{Pyr: pyr}
	validate := func(region geo.Rect, req privacy.Requirement) (int, bool) {
		// Count via the pyramid's own region counters at the bottom level is
		// approximate for arbitrary rects; quadtree regions are cell-aligned,
		// so counting the matching cell is exact. Use CountIn-style brute
		// force through the points for the test's ground truth instead.
		n := bruteCount(pts, region)
		return n, n >= req.K
	}
	inc := NewIncremental(q, validate)
	uid := uint64(42)
	loc := pts[uid-1]
	req := privacy.Requirement{K: 20}
	first := inc.Cloak(uid, loc, req)
	if first.Reused {
		t.Fatal("first cloak cannot be reused")
	}
	// A tiny move stays inside the (cell-sized) region: must reuse.
	eps := first.Region.Width() / 1000
	inside := geo.Pt(
		math.Min(loc.X+eps, first.Region.Max.X),
		loc.Y,
	)
	second := inc.Cloak(uid, inside, req)
	if !second.Reused {
		t.Fatalf("expected reuse for in-region move: %v", second)
	}
	if !second.Region.Eq(first.Region) {
		t.Fatal("reused region differs")
	}
	// A move far outside must recompute.
	far := geo.Pt(math.Mod(loc.X+0.5, 1), math.Mod(loc.Y+0.5, 1))
	third := inc.Cloak(uid, far, req)
	if third.Reused {
		t.Fatal("expected recompute for out-of-region move")
	}
	if inc.CacheSize() != 1 {
		t.Fatalf("cache size %d", inc.CacheSize())
	}
	inc.Invalidate(uid)
	if inc.CacheSize() != 0 {
		t.Fatal("Invalidate did not clear")
	}
}

func TestIncrementalRecomputesOnReqChange(t *testing.T) {
	_, pyr, pts := population(t, 3000, mobility.Uniform, 20)
	inc := NewIncremental(&Quadtree{Pyr: pyr}, pyramidCount(pyr))
	uid := uint64(7)
	inc.Cloak(uid, pts[uid-1], privacy.Requirement{K: 10})
	res := inc.Cloak(uid, pts[uid-1], privacy.Requirement{K: 500})
	if res.Reused {
		t.Fatal("requirement change must force recompute")
	}
}

// countingCloaker counts the calls that reach its inner cloaker.
type countingCloaker struct {
	Cloaker
	calls int
}

func (c *countingCloaker) Cloak(id uint64, loc geo.Point, req privacy.Requirement) Result {
	c.calls++
	return c.Cloaker.Cloak(id, loc, req)
}

func TestIncrementalRecomputesWhenInvalid(t *testing.T) {
	// Validator that always fails forces recompute every time.
	_, pyr, pts := population(t, 1000, mobility.Uniform, 21)
	inner := &countingCloaker{Cloaker: &Quadtree{Pyr: pyr}}
	inc := NewIncremental(inner,
		func(geo.Rect, privacy.Requirement) (int, bool) { return 0, false })
	uid := uint64(3)
	req := privacy.Requirement{K: 5}
	first := inc.Cloak(uid, pts[uid-1], req)
	res := inc.Cloak(uid, pts[uid-1], req)
	if inner.calls != 2 {
		t.Fatalf("inner cloaker called %d times, want a recompute on every invalid hit (2)", inner.calls)
	}
	// The population did not change, so the recompute lands on the cached
	// region, which the database already holds: reported reused.
	if first.Reused || !res.Reused || !res.Region.Eq(first.Region) {
		t.Fatalf("first reused=%v; recompute reused=%v region %v, want %v reused",
			first.Reused, res.Reused, res.Region, first.Region)
	}
}

func TestIncrementalName(t *testing.T) {
	pyr, _ := pyramid.New(world, 4)
	inc := NewIncremental(&Quadtree{Pyr: pyr}, pyramidCount(pyr))
	if inc.Name() != "quadtree+inc" {
		t.Errorf("Name = %q", inc.Name())
	}
}

// --- Batch / shared execution ---

func TestBatchEmpty(t *testing.T) {
	pyr, _ := pyramid.New(world, 4)
	b := &Batch{Pyr: pyr, Inner: &Quadtree{Pyr: pyr}}
	results, shared := b.CloakAll(nil, 1)
	if len(results) != 0 || shared != 0 {
		t.Fatal("empty batch misbehaved")
	}
}

// --- Cross-algorithm properties ---

// Property (I1+I2): for random populations and requirements every algorithm
// returns a region containing the user with brute-force count ≥ min(k, N).
func TestPropAllCloakersSatisfyKWhenPossible(t *testing.T) {
	f := func(seed uint64, kRaw uint8, userRaw uint16) bool {
		k := int(kRaw%60) + 1
		pop, pyr, pts := population(t, 800, mobility.Gaussian, seed)
		uid := uint64(int(userRaw)%len(pts)) + 1
		loc := pts[uid-1]
		req := privacy.Requirement{K: k}
		cloakers := []Cloaker{
			&Naive{Pop: pop},
			&MBR{Pop: pop},
			&Quadtree{Pyr: pyr},
			&Grid{Pyr: pyr, Level: 4},
			&Grid{Pyr: pyr, Level: 4, MultiLevel: true},
		}
		for _, c := range cloakers {
			res := c.Cloak(uid, loc, req)
			if !res.Region.Contains(loc) {
				t.Logf("%s: region %v excludes user %v", c.Name(), res.Region, loc)
				return false
			}
			if got := bruteCount(pts, res.Region); got < k {
				t.Logf("%s: count %d < k %d", c.Name(), got, k)
				return false
			}
			if !res.SatisfiedK {
				t.Logf("%s: SatisfiedK false despite satisfiable k", c.Name())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestResultString(t *testing.T) {
	r := Result{Region: world, K: 5, SatisfiedK: true}
	if r.String() == "" {
		t.Error("empty Result string")
	}
}

// --- Benchmarks used by experiment E2/E3 sanity ---

func benchPopulation(b *testing.B, n int) (GridPopulation, *pyramid.Pyramid, []geo.Point) {
	return population(b, n, mobility.Uniform, 1)
}

func BenchmarkCloakNaive10k(b *testing.B) {
	pop, _, pts := benchPopulation(b, 10000)
	n := &Naive{Pop: pop}
	req := privacy.Requirement{K: 50}
	src := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		uid := uint64(src.Intn(len(pts))) + 1
		n.Cloak(uid, pts[uid-1], req)
	}
}

func BenchmarkCloakMBR10k(b *testing.B) {
	pop, _, pts := benchPopulation(b, 10000)
	m := &MBR{Pop: pop}
	req := privacy.Requirement{K: 50}
	src := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		uid := uint64(src.Intn(len(pts))) + 1
		m.Cloak(uid, pts[uid-1], req)
	}
}

func BenchmarkCloakQuadtree10k(b *testing.B) {
	_, pyr, pts := benchPopulation(b, 10000)
	q := &Quadtree{Pyr: pyr}
	req := privacy.Requirement{K: 50}
	src := rng.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		uid := uint64(src.Intn(len(pts))) + 1
		q.Cloak(uid, pts[uid-1], req)
	}
}

func BenchmarkCloakGrid10k(b *testing.B) {
	_, pyr, pts := benchPopulation(b, 10000)
	g := &Grid{Pyr: pyr, Level: 5, MultiLevel: true}
	req := privacy.Requirement{K: 50}
	src := rng.New(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		uid := uint64(src.Intn(len(pts))) + 1
		g.Cloak(uid, pts[uid-1], req)
	}
}

func BenchmarkBatchQuadtree(b *testing.B) {
	_, pyr, pts := benchPopulation(b, 10000)
	bq := &Batch{Pyr: pyr, Inner: &Quadtree{Pyr: pyr}}
	reqs := make([]Request, len(pts))
	for i := range reqs {
		reqs[i] = Request{ID: uint64(i + 1), Loc: pts[i], Req: privacy.Requirement{K: 50}}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bq.CloakAll(reqs, 1)
	}
}
