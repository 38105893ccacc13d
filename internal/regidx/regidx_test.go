package regidx

import (
	"testing"
	"testing/quick"

	"repro/internal/geo"
	"repro/internal/rng"
)

var world = geo.R(0, 0, 1, 1)

func mustNew(t testing.TB) *Index {
	t.Helper()
	x, err := New(world, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestNewValidation(t *testing.T) {
	if _, err := New(world, 0, 4); err == nil {
		t.Error("zero cols accepted")
	}
	if _, err := New(geo.Rect{}, 4, 4); err == nil {
		t.Error("empty world accepted")
	}
}

func TestUpsertDeleteBasics(t *testing.T) {
	x := mustNew(t)
	r := geo.R(0.1, 0.1, 0.3, 0.3)
	if err := x.Upsert(1, r); err != nil {
		t.Fatal(err)
	}
	if x.Len() != 1 {
		t.Error("Len")
	}
	got, ok := x.Region(1)
	if !ok || !got.Eq(r) {
		t.Errorf("Region = %v, %v", got, ok)
	}
	if err := x.Upsert(1, geo.Rect{Min: geo.Pt(1, 1)}); err == nil {
		t.Error("invalid region accepted")
	}
	if !x.Delete(1) || x.Delete(1) {
		t.Error("Delete misbehaved")
	}
	if x.Len() != 0 {
		t.Error("Len after delete")
	}
}

func TestQueryExactness(t *testing.T) {
	x := mustNew(t)
	x.Upsert(1, geo.R(0.1, 0.1, 0.2, 0.2))
	x.Upsert(2, geo.R(0.5, 0.5, 0.7, 0.7))
	x.Upsert(3, geo.R(0.0, 0.0, 1.0, 1.0)) // world-sized region

	got := x.Query(geo.R(0.15, 0.15, 0.16, 0.16), nil)
	want := map[uint64]bool{1: true, 3: true}
	if len(got) != 2 {
		t.Fatalf("Query = %v", got)
	}
	for _, id := range got {
		if !want[id] {
			t.Fatalf("unexpected id %d", id)
		}
	}
	// No duplicates for multi-cell regions.
	got = x.Query(world, nil)
	seen := map[uint64]int{}
	for _, id := range got {
		seen[id]++
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("id %d returned %d times", id, n)
		}
	}
	if len(seen) != 3 {
		t.Errorf("world query found %d regions", len(seen))
	}
}

func TestUpsertMoveRebuckets(t *testing.T) {
	x := mustNew(t)
	x.Upsert(1, geo.R(0.0, 0.0, 0.1, 0.1))
	x.Upsert(1, geo.R(0.8, 0.8, 0.9, 0.9)) // move across buckets
	if got := x.Query(geo.R(0, 0, 0.2, 0.2), nil); len(got) != 0 {
		t.Errorf("stale bucket: %v", got)
	}
	if got := x.Query(geo.R(0.75, 0.75, 1, 1), nil); len(got) != 1 || got[0] != 1 {
		t.Errorf("new bucket: %v", got)
	}
	// Same-bucket move keeps the entry findable.
	x.Upsert(1, geo.R(0.81, 0.81, 0.89, 0.89))
	if got := x.Query(geo.R(0.75, 0.75, 1, 1), nil); len(got) != 1 {
		t.Errorf("after same-bucket move: %v", got)
	}
}

// Property: under a mix of inserts, deletes, delete-then-reinserts (slot
// reuse), moves within one cell range and moves across cells, every probe
// emits each intersecting id exactly once with the model's rectangle, and
// Len, Region and All agree with the model.
func TestPropQueryMatchesBrute(t *testing.T) {
	type tally struct{ reuse, sameCells, crossCells int }
	var seen tally
	f := func(seed uint64, opsRaw uint16) bool {
		src := rng.New(seed)
		x, err := New(world, 8, 8)
		if err != nil {
			return false
		}
		model := map[uint64]geo.Rect{}
		deleted := map[uint64]bool{}
		ops := int(opsRaw%300) + 30
		for i := 0; i < ops; i++ {
			id := uint64(src.Intn(40)) + 1
			old, had := model[id]
			var r geo.Rect
			switch u := src.Float64(); {
			case u < 0.2:
				delete(model, id)
				if x.Delete(id) != had {
					t.Logf("Delete(%d) disagrees with the model", id)
					return false
				}
				if had {
					deleted[id] = true
				}
				continue
			case had && u < 0.45:
				// Nudge inside the region's own cell range.
				c0, r0, c1, r1 := x.cellRange(old)
				cw, rh := world.Width()/8, world.Height()/8
				lo := geo.Pt(float64(c0)*cw, float64(r0)*rh)
				hi := geo.Pt(float64(c1+1)*cw, float64(r1+1)*rh)
				a := geo.Pt(lo.X+(old.Min.X-lo.X)*src.Float64(), lo.Y+(old.Min.Y-lo.Y)*src.Float64())
				b := geo.Pt(old.Max.X+(hi.X-old.Max.X)*0.999*src.Float64(), old.Max.Y+(hi.Y-old.Max.Y)*0.999*src.Float64())
				r = geo.Rect{Min: a, Max: b}
			default:
				c := geo.Pt(src.Float64(), src.Float64())
				r = geo.RectAround(c, 0.01+0.2*src.Float64()).Clip(world)
			}
			switch {
			case !had && deleted[id]:
				seen.reuse++
			case had:
				oc0, or0, oc1, or1 := x.cellRange(old)
				nc0, nr0, nc1, nr1 := x.cellRange(r)
				if oc0 == nc0 && or0 == nr0 && oc1 == nc1 && or1 == nr1 {
					seen.sameCells++
				} else {
					seen.crossCells++
				}
			}
			model[id] = r
			if x.Upsert(id, r) != nil {
				return false
			}
		}
		if x.Len() != len(model) {
			t.Logf("Len = %d, model has %d", x.Len(), len(model))
			return false
		}
		all := x.All(nil)
		if len(all) != len(model) {
			t.Logf("All returned %d ids, model has %d", len(all), len(model))
			return false
		}
		for _, id := range all {
			if _, ok := model[id]; !ok {
				t.Logf("All returned unknown id %d", id)
				return false
			}
		}
		for id := uint64(1); id <= 40; id++ {
			got, ok := x.Region(id)
			want, inModel := model[id]
			if ok != inModel || (ok && !got.Eq(want)) {
				t.Logf("Region(%d) = %v, %v; model %v, %v", id, got, ok, want, inModel)
				return false
			}
		}
		for trial := 0; trial < 5; trial++ {
			q := geo.RectAround(geo.Pt(src.Float64(), src.Float64()), 0.05+0.2*src.Float64()).Clip(world)
			ids := x.Query(q, nil)
			hits := x.QueryHits(q, nil)
			if len(ids) != len(hits) {
				t.Logf("Query found %d, QueryHits %d", len(ids), len(hits))
				return false
			}
			got := map[uint64]bool{}
			for i, h := range hits {
				if got[h.ID] {
					t.Logf("id %d emitted twice", h.ID)
					return false
				}
				got[h.ID] = true
				if ids[i] != h.ID {
					t.Logf("Query and QueryHits disagree at %d: %d vs %d", i, ids[i], h.ID)
					return false
				}
				if want, ok := model[h.ID]; !ok || !h.Region.Eq(want) {
					t.Logf("hit %d carries %v, model %v", h.ID, h.Region, want)
					return false
				}
			}
			want := 0
			for id, r := range model {
				if r.Intersects(q) {
					want++
					if !got[id] {
						return false
					}
				}
			}
			if len(got) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
	if seen.reuse == 0 || seen.sameCells == 0 || seen.crossCells == 0 {
		t.Errorf("op mix missed a case: %+v", seen)
	}
}

func TestAll(t *testing.T) {
	x := mustNew(t)
	x.Upsert(1, geo.R(0, 0, 0.1, 0.1))
	x.Upsert(2, geo.R(0.5, 0.5, 0.6, 0.6))
	if got := x.All(nil); len(got) != 2 {
		t.Errorf("All = %v", got)
	}
}

func BenchmarkQuerySmall(b *testing.B) {
	x, _ := New(world, 32, 32)
	src := rng.New(1)
	for i := 0; i < 10000; i++ {
		c := geo.Pt(src.Float64(), src.Float64())
		x.Upsert(uint64(i+1), geo.RectAround(c, 0.02).Clip(world))
	}
	q := geo.R(0.45, 0.45, 0.55, 0.55)
	var buf []uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = x.Query(q, buf[:0])
	}
}

// BenchmarkQueryAnalyst is the public-count probe at k = 100: 20,000
// quadtree-aligned cloaks of side 1/16 and 1/32 on the server's 32 × 32
// grid, probed by a 0.2-side rectangle.
func BenchmarkQueryAnalyst(b *testing.B) {
	x, _ := New(world, 32, 32)
	src := rng.New(3)
	for i := 0; i < 20000; i++ {
		side := 1.0 / 16
		if src.Float64() < 0.5 {
			side = 1.0 / 32
		}
		n := int(1 / side)
		x0, y0 := float64(src.Intn(n))*side, float64(src.Intn(n))*side
		x.Upsert(uint64(i+1), geo.R(x0, y0, x0+side, y0+side))
	}
	queries := make([]geo.Rect, 64)
	for i := range queries {
		queries[i] = geo.RectAround(geo.Pt(0.1+0.8*src.Float64(), 0.1+0.8*src.Float64()), 0.1)
	}
	var buf []Hit
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = x.QueryHits(queries[i%len(queries)], buf[:0])
	}
}

// BenchmarkUpsertSameCells re-upserts regions that stay inside their own
// cell range, the path a slot rewrite serves.
func BenchmarkUpsertSameCells(b *testing.B) {
	x, _ := New(world, 32, 32)
	const n = 10000
	side := 1.0 / 32
	for i := 0; i < n; i++ {
		x0, y0 := float64(i%32)*side, float64(i/32%32)*side
		x.Upsert(uint64(i+1), geo.R(x0+0.1*side, y0+0.1*side, x0+0.9*side, y0+0.9*side))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % n
		x0, y0 := float64(k%32)*side, float64(k/32%32)*side
		shrink := 0.1 + 0.1*float64(i&1)
		x.Upsert(uint64(k+1), geo.R(x0+shrink*side, y0+shrink*side, x0+(1-shrink)*side, y0+(1-shrink)*side))
	}
}

func BenchmarkUpsertChurn(b *testing.B) {
	x, _ := New(world, 32, 32)
	src := rng.New(2)
	for i := 0; i < 10000; i++ {
		c := geo.Pt(src.Float64(), src.Float64())
		x.Upsert(uint64(i+1), geo.RectAround(c, 0.02).Clip(world))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(i%10000) + 1
		c := geo.Pt(src.Float64(), src.Float64())
		x.Upsert(id, geo.RectAround(c, 0.02).Clip(world))
	}
}
