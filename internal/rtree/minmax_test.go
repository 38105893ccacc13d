package rtree

import (
	"math"
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/rng"
)

// scanMinMax is the min–max candidate set by definition, from a linear
// scan: B is the least MaxDist² to r over the items match accepts (+Inf
// when it accepts none), and the set is every accepted item with
// MinDist² ≤ B.
func scanMinMax(items []Item, r geo.Rect, match func(Item) bool) ([]Item, float64) {
	bound := math.Inf(1)
	for _, it := range items {
		if match == nil || match(it) {
			bound = min(bound, geo.MaxDist2(it.Loc, r))
		}
	}
	var out []Item
	for _, it := range items {
		if (match == nil || match(it)) && geo.MinDist2(it.Loc, r) <= bound {
			out = append(out, it)
		}
	}
	return out, bound
}

func idSet(items []Item) map[uint64]bool {
	ids := make(map[uint64]bool, len(items))
	for _, it := range items {
		ids[it.ID] = true
	}
	return ids
}

func sortedIDs(items []Item) []uint64 {
	ids := make([]uint64, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	slices.Sort(ids)
	return ids
}

// TestMinMaxCandidatesMatchesScan compares the descent with the scan at
// every packing shape from an empty tree to three full levels of leaves,
// and at random sizes in between, with and without a class filter.
func TestMinMaxCandidatesMatchesScan(t *testing.T) {
	sizes := []int{0, 1, 2, 15, 16, 17, 255, 256, 257, 3 * 16 * 16}
	for seed := uint64(1); seed <= 25; seed++ {
		sizes = append(sizes, 1+rng.New(seed).Intn(3*16*16))
	}
	for si, n := range sizes {
		src := rng.New(uint64(si) + 100)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{ID: uint64(i + 1), Loc: geo.Pt(src.Float64(), src.Float64())}
		}
		tr := BulkLoad(append([]Item(nil), items...))
		// Odd IDs only, emulating a class filter over the metadata map.
		odd := func(it Item) bool { return it.ID%2 == 1 }
		for trial := 0; trial < 30; trial++ {
			c := geo.Pt(src.Float64(), src.Float64())
			half := 0.001 + 0.2*src.Float64()
			r := geo.RectAround(c, half).Clip(world)
			for mi, match := range []func(Item) bool{nil, odd} {
				wantItems, wantBound := scanMinMax(items, r, match)
				got, bound, visited := tr.MinMaxCandidates(r, match, nil)
				if bound != wantBound {
					t.Fatalf("n=%d trial %d match %d: bound %g, scan bound %g", n, trial, mi, bound, wantBound)
				}
				gotIDs, wantIDs := sortedIDs(got), sortedIDs(wantItems)
				if !slices.Equal(gotIDs, wantIDs) {
					t.Fatalf("n=%d trial %d match %d: candidate ids %v != scan %v", n, trial, mi, gotIDs, wantIDs)
				}
				if n > 0 && visited < 1 {
					t.Fatalf("n=%d trial %d: descent reported %d node visits", n, trial, visited)
				}
			}
		}
	}
}

func TestMinMaxCandidatesEmptyAndNoMatch(t *testing.T) {
	got, bound, visited := BulkLoad(nil).MinMaxCandidates(geo.R(0, 0, 1, 1), nil, nil)
	if len(got) != 0 || !math.IsInf(bound, 1) || visited != 0 {
		t.Fatalf("empty tree: got %v bound %g visits %d", got, bound, visited)
	}
	tr := BulkLoad([]Item{{ID: 1, Loc: geo.Pt(0.5, 0.5)}})
	got, bound, _ = tr.MinMaxCandidates(geo.R(0, 0, 1, 1), func(Item) bool { return false }, nil)
	if len(got) != 0 || !math.IsInf(bound, 1) {
		t.Fatalf("all-rejected: got %v bound %g", got, bound)
	}
}

func TestMinMaxCandidatesAppendsToDst(t *testing.T) {
	tr := BulkLoad([]Item{{ID: 7, Loc: geo.Pt(0.5, 0.5)}})
	prefix := []Item{{ID: 99, Loc: geo.Pt(0, 0)}}
	got, _, _ := tr.MinMaxCandidates(geo.R(0.4, 0.4, 0.6, 0.6), nil, prefix)
	if len(got) != 2 || got[0].ID != 99 || got[1].ID != 7 {
		t.Fatalf("dst prefix not preserved: %v", got)
	}
}

func BenchmarkMinMaxCandidates(b *testing.B) {
	src := rng.New(42)
	items := make([]Item, 5000)
	for i := range items {
		items[i] = Item{ID: uint64(i + 1), Loc: geo.Pt(src.Float64(), src.Float64())}
	}
	tr := BulkLoad(items)
	r := geo.RectAround(geo.Pt(0.5, 0.5), 0.01)
	var scratch []Item
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch, _, _ = tr.MinMaxCandidates(r, nil, scratch[:0])
	}
}
