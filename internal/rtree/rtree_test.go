package rtree

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/rng"
)

var world = geo.R(0, 0, 1, 1)

func testPoints(t testing.TB, n int, seed uint64) []geo.Point {
	t.Helper()
	pts, err := mobility.GeneratePoints(mobility.PopulationSpec{
		N: n, World: world, Dist: mobility.Uniform, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

func bruteRange(items []Item, r geo.Rect) map[uint64]bool {
	out := map[uint64]bool{}
	for _, it := range items {
		if r.Contains(it.Loc) {
			out[it.ID] = true
		}
	}
	return out
}

// loadPoints bulk-loads pts with IDs 1..n and returns the items too, in
// input order (BulkLoad reorders its own copy).
func loadPoints(pts []geo.Point) (*Tree, []Item) {
	items := make([]Item, len(pts))
	for i, p := range pts {
		items[i] = Item{ID: uint64(i + 1), Loc: p}
	}
	return BulkLoad(append([]Item(nil), items...)), items
}

// depth returns the height of the tree (0 for empty, 1 for a single leaf).
func depth(t *Tree) int {
	d := 0
	for n := t.root; n != nil; {
		d++
		if n.leaf {
			break
		}
		n = n.children[0].n
	}
	return d
}

// sameIDs reports whether got holds exactly the IDs of want, once each.
func sameIDs(got []Item, want map[uint64]bool) bool {
	if len(got) != len(want) {
		return false
	}
	for _, it := range got {
		if !want[it.ID] {
			return false
		}
	}
	return true
}

func TestEmptyTree(t *testing.T) {
	for _, tr := range []*Tree{{}, BulkLoad(nil)} {
		if tr.Len() != 0 {
			t.Error("empty tree Len != 0")
		}
		if got := tr.Search(world, nil); len(got) != 0 {
			t.Error("empty tree search returned items")
		}
		if _, visits := tr.SearchVisits(world, nil); visits != 0 {
			t.Errorf("empty tree search visited %d nodes", visits)
		}
		if _, ok := tr.NearestOne(geo.Pt(0.5, 0.5)); ok {
			t.Error("empty tree returned a nearest item")
		}
		if err := tr.checkInvariants(); err != nil {
			t.Error(err)
		}
	}
}

func TestSearchSmall(t *testing.T) {
	tr, _ := loadPoints([]geo.Point{{X: 0.1, Y: 0.1}, {X: 0.9, Y: 0.9}, {X: 0.5, Y: 0.5}})
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	got := tr.Search(geo.R(0, 0, 0.6, 0.6), nil)
	ids := map[uint64]bool{}
	for _, it := range got {
		ids[it.ID] = true
	}
	if !ids[1] || !ids[3] || ids[2] {
		t.Errorf("search got %v", ids)
	}
}

// TestBulkLoadMatchesBrute checks range search against a scan at every
// packing shape up to three full levels of leaves: one partial leaf, exactly
// one full leaf, one item over, a full and an overfull second level, and a
// larger tree.
func TestBulkLoadMatchesBrute(t *testing.T) {
	src := rng.New(5)
	for _, n := range []int{0, 1, 2, 15, 16, 17, 255, 256, 257, 3 * 16 * 16, 5000} {
		tr, items := loadPoints(testPoints(t, max(n, 1), uint64(n)+2)[:n])
		if tr.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, tr.Len())
		}
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for q := 0; q < 50; q++ {
			r := geo.R(src.Float64(), src.Float64(), src.Float64(), src.Float64())
			if got := tr.Search(r, nil); !sameIDs(got, bruteRange(items, r)) {
				t.Fatalf("n=%d query %v: got %d items, want %d", n, r, len(got), len(bruteRange(items, r)))
			}
		}
		if got := tr.Search(world, nil); !sameIDs(got, bruteRange(items, world)) {
			t.Fatalf("n=%d: whole-world search returned %d items", n, len(got))
		}
	}
}

func TestBulkLoadEmptyAndTiny(t *testing.T) {
	if tr := BulkLoad(nil); tr.Len() != 0 {
		t.Error("empty bulk load nonzero Len")
	}
	tr := BulkLoad([]Item{{ID: 1, Loc: geo.Pt(0.5, 0.5)}})
	if tr.Len() != 1 {
		t.Error("single-item bulk load")
	}
	if it, ok := tr.NearestOne(geo.Pt(0, 0)); !ok || it.ID != 1 {
		t.Error("single-item nearest")
	}
}

func TestFromPoints(t *testing.T) {
	tr := FromPoints([]geo.Point{{X: 0.1, Y: 0.1}, {X: 0.2, Y: 0.2}})
	if tr.Len() != 2 {
		t.Fatalf("Len = %d", tr.Len())
	}
	all := tr.Search(world, nil)
	ids := map[uint64]bool{}
	for _, it := range all {
		ids[it.ID] = true
	}
	if !ids[1] || !ids[2] {
		t.Errorf("FromPoints ids = %v", ids)
	}
}

func TestNearestMatchesBrute(t *testing.T) {
	pts := testPoints(t, 3000, 4)
	tr := FromPoints(pts)
	src := rng.New(13)
	for q := 0; q < 30; q++ {
		query := geo.Pt(src.Float64(), src.Float64())
		got := tr.Nearest(query, 10)
		if len(got) != 10 {
			t.Fatalf("Nearest returned %d items", len(got))
		}
		// Brute force.
		type pd struct {
			id uint64
			d  float64
		}
		all := make([]pd, len(pts))
		for i, p := range pts {
			all[i] = pd{uint64(i + 1), query.Dist2(p)}
		}
		sort.Slice(all, func(i, j int) bool { return all[i].d < all[j].d })
		for i := range got {
			if got[i].Loc.Dist2(query) != all[i].d {
				t.Fatalf("Nearest[%d] dist %v, want %v", i, got[i].Loc.Dist2(query), all[i].d)
			}
		}
		// Distances must be sorted.
		for i := 1; i < len(got); i++ {
			if query.Dist2(got[i].Loc) < query.Dist2(got[i-1].Loc) {
				t.Fatal("Nearest not sorted by distance")
			}
		}
	}
}

func TestBrowserExhaustsAllSorted(t *testing.T) {
	pts := testPoints(t, 500, 6)
	tr := FromPoints(pts)
	b := tr.NewPointBrowser(geo.Pt(0.3, 0.7))
	var prev float64 = -1
	n := 0
	for {
		_, d2, ok := b.Next()
		if !ok {
			break
		}
		if d2 < prev {
			t.Fatalf("browser out of order: %v after %v", d2, prev)
		}
		prev = d2
		n++
	}
	if n != 500 {
		t.Fatalf("browser yielded %d items, want 500", n)
	}
}

func TestNearestEdgeCases(t *testing.T) {
	tr := FromPoints([]geo.Point{{X: 0.5, Y: 0.5}})
	if got := tr.Nearest(geo.Pt(0, 0), 0); got != nil {
		t.Error("Nearest k=0 should be nil")
	}
	if got := tr.Nearest(geo.Pt(0, 0), 5); len(got) != 1 {
		t.Errorf("Nearest k>size returned %d", len(got))
	}
}

// TestDuplicateLocations loads 400 co-located items among 200 scattered
// ones: STR spreads them over leaves under more than one parent, and every
// query kind must still see all of them.
func TestDuplicateLocations(t *testing.T) {
	const dups = 400
	p := geo.Pt(0.5, 0.5)
	pts := testPoints(t, 200, 12)
	for i := 0; i < dups; i++ {
		pts = append(pts, p)
	}
	tr, items := loadPoints(pts)
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(pts) {
		t.Fatal("duplicate-location load lost items")
	}
	if got := tr.Search(geo.PointRect(p), nil); !sameIDs(got, bruteRange(items, geo.PointRect(p))) || len(got) != dups {
		t.Fatalf("point search found %d co-located items, want %d", len(got), dups)
	}
	for _, it := range tr.Nearest(p, dups) {
		if !it.Loc.Eq(p) {
			t.Fatalf("Nearest returned %v before exhausting the items at %v", it.Loc, p)
		}
	}
	// Every co-located item ties for nearest anywhere near p, so the
	// min–max set of a small region around p holds all of them. From a
	// point beside p, a leaf holding only duplicates sits exactly at the
	// bound, and the descent must still enter it.
	for _, r := range []geo.Rect{geo.RectAround(p, 0.001), geo.PointRect(geo.Pt(p.X+0.001, p.Y))} {
		cand, _, _ := tr.MinMaxCandidates(r, nil, nil)
		want, _ := scanMinMax(items, r, nil)
		if !sameIDs(cand, idSet(want)) || len(want) < dups {
			t.Fatalf("region %v: min–max set of %d items around the duplicates, scan finds %d", r, len(cand), len(want))
		}
	}
}

func TestPropLoadedAlwaysFindable(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%500) + 1
		pts, err := mobility.GeneratePoints(mobility.PopulationSpec{
			N: n, World: world, Dist: mobility.Gaussian, Seed: seed,
		})
		if err != nil {
			return false
		}
		tr, _ := loadPoints(pts)
		if tr.checkInvariants() != nil {
			return false
		}
		// Every loaded point must be findable by a point query.
		for i, p := range pts {
			found := false
			for _, it := range tr.Search(geo.PointRect(p), nil) {
				if it.ID == uint64(i+1) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPropNearestOneIsTrueMinimum(t *testing.T) {
	f := func(seed uint64, qx, qy float64) bool {
		if math.IsNaN(qx) || math.IsNaN(qy) || math.IsInf(qx, 0) || math.IsInf(qy, 0) {
			return true
		}
		qx = math.Mod(math.Abs(qx), 1)
		qy = math.Mod(math.Abs(qy), 1)
		pts, err := mobility.GeneratePoints(mobility.PopulationSpec{
			N: 200, World: world, Dist: mobility.Uniform, Seed: seed,
		})
		if err != nil {
			return false
		}
		tr := FromPoints(pts)
		q := geo.Pt(qx, qy)
		got, ok := tr.NearestOne(q)
		if !ok {
			return false
		}
		best := math.Inf(1)
		for _, p := range pts {
			if d := q.Dist2(p); d < best {
				best = d
			}
		}
		return q.Dist2(got.Loc) == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDepth(t *testing.T) {
	if depth(BulkLoad(nil)) != 0 {
		t.Error("empty depth != 0")
	}
	tr := FromPoints(testPoints(t, 10000, 10))
	d := depth(tr)
	if d < 3 || d > 6 {
		t.Errorf("10k-item tree depth = %d, expected a packed shallow tree", d)
	}
}

func BenchmarkSearch10k(b *testing.B) {
	tr := FromPoints(testPoints(b, 10000, 2))
	r := geo.R(0.4, 0.4, 0.6, 0.6)
	var buf []Item
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tr.Search(r, buf[:0])
	}
}

func BenchmarkNearest10k(b *testing.B) {
	tr := FromPoints(testPoints(b, 10000, 3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Nearest(geo.Pt(0.5, 0.5), 10)
	}
}

func BenchmarkBulkLoad10k(b *testing.B) {
	pts := testPoints(b, 10000, 4)
	items := make([]Item, len(pts))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, p := range pts {
			items[j] = Item{ID: uint64(j + 1), Loc: p}
		}
		BulkLoad(items)
	}
}
