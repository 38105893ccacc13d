package router

import (
	"math"
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/rng"
)

var testWorld = geo.R(0, 0, 1, 1)

// bruteCover is the specification cover() must match: every tile whose
// closed rectangle intersects the query's world clamp.
func bruteCover(g tileGrid, rect geo.Rect) []int {
	clamped, ok := rect.Intersect(g.world)
	if !ok {
		return nil
	}
	var out []int
	for t := 0; t < g.tiles(); t++ {
		if g.tileRect(t).Intersects(clamped) {
			out = append(out, t)
		}
	}
	return out
}

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCoverEqualsBruteForce: the windowed cover must equal the brute-force
// geometric specification for random cloaked rectangles — including
// degenerate points, tile-boundary-aligned edges, rectangles hanging over
// or fully outside the world, and non-square grids with awkward tile
// widths.
func TestCoverEqualsBruteForce(t *testing.T) {
	grids := []tileGrid{
		{world: testWorld, cols: 16, rows: 16},
		{world: testWorld, cols: 7, rows: 3},
		{world: geo.R(-3, 2, 11, 9), cols: 13, rows: 5},
		{world: testWorld, cols: 1, rows: 1},
	}
	src := rng.New(0x7135)
	for _, g := range grids {
		w, h := g.world.Width(), g.world.Height()
		for i := 0; i < 4000; i++ {
			var r geo.Rect
			switch src.Intn(5) {
			case 0: // random rect, possibly hanging over the world edge
				c := geo.Pt(g.world.Min.X+w*src.Range(-0.2, 1.2), g.world.Min.Y+h*src.Range(-0.2, 1.2))
				r = geo.RectAround(c, src.Float64()*0.3*w)
			case 1: // degenerate point
				p := geo.Pt(g.world.Min.X+w*src.Float64(), g.world.Min.Y+h*src.Float64())
				r = geo.Rect{Min: p, Max: p}
			case 2: // edges snapped to exact tile boundaries
				c0, c1 := src.Intn(g.cols+1), src.Intn(g.cols+1)
				r0, r1 := src.Intn(g.rows+1), src.Intn(g.rows+1)
				r = geo.R(g.xb(c0), g.yb(r0), g.xb(c1), g.yb(r1))
			case 3: // fully outside the world
				r = geo.RectAround(geo.Pt(g.world.Max.X+w, g.world.Max.Y+h), 0.1*w)
			default: // whole world and beyond
				r = g.world.Expand(w * src.Float64())
			}
			got := g.cover(r)
			want := bruteCover(g, r)
			if !eqInts(got, want) {
				t.Fatalf("grid %dx%d cover(%v) = %v, brute force %v", g.cols, g.rows, r, got, want)
			}
		}
	}
}

// TestCoverRejectsUnparseable: invalid geometry covers nothing (the
// router's shard-0 fallback reproduces the validation error instead).
func TestCoverRejectsUnparseable(t *testing.T) {
	g := tileGrid{world: testWorld, cols: 16, rows: 16}
	nan := math.NaN()
	cases := []geo.Rect{
		{Min: geo.Pt(0.8, 0.8), Max: geo.Pt(0.2, 0.2)}, // inverted
		{Min: geo.Pt(nan, 0.2), Max: geo.Pt(0.4, 0.4)}, // NaN corner
		geo.R(0.1, 0.1, 0.2, 0.2).Expand(nan),          // NaN everywhere
		geo.RectAround(geo.Pt(5, 5), 0.5),              // outside the world
	}
	for _, r := range cases {
		if got := g.cover(r); got != nil {
			t.Errorf("cover(%v) = %v, want nil", r, got)
		}
	}
	// An infinite rectangle clamps to the whole world.
	inf := geo.R(0.4, 0.4, 0.6, 0.6).Expand(math.Inf(1))
	if got := g.cover(inf); len(got) != g.tiles() {
		t.Errorf("cover(infinite) hit %d of %d tiles", len(got), g.tiles())
	}
}

// TestTileOfContainment: every world point maps to exactly one tile whose
// closed rectangle contains it, and that tile is in any cover of a
// rectangle through the point — the invariant the scatter completeness
// argument rests on.
func TestTileOfContainment(t *testing.T) {
	g := tileGrid{world: testWorld, cols: 16, rows: 16}
	src := rng.New(0x7136)
	for i := 0; i < 4000; i++ {
		var p geo.Point
		switch src.Intn(3) {
		case 0:
			p = geo.Pt(src.Float64(), src.Float64())
		case 1: // exact tile boundary crossings
			p = geo.Pt(g.xb(src.Intn(g.cols+1)), g.yb(src.Intn(g.rows+1)))
		default: // just either side of a boundary
			p = geo.Pt(
				math.Nextafter(g.xb(src.Intn(g.cols+1)), src.Float64()),
				math.Nextafter(g.yb(src.Intn(g.rows+1)), src.Float64()),
			)
		}
		p = testWorld.ClampPoint(p)
		tl := g.tileOf(p)
		if tl < 0 || tl >= g.tiles() {
			t.Fatalf("tileOf(%v) = %d out of range", p, tl)
		}
		if !g.tileRect(tl).Contains(p) {
			t.Fatalf("tileRect(tileOf(%v)) = %v does not contain the point", p, g.tileRect(tl))
		}
		r := geo.RectAround(p, 0.01)
		if !containsInt(g.cover(r), tl) {
			t.Fatalf("cover of a rect around %v misses its owning tile %d", p, tl)
		}
	}
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// TestOwnersOfFallback: rectangles with no world intersection route to
// shard 0, never to an empty set.
func TestOwnersOfFallback(t *testing.T) {
	r := newTestRouter(t, 4)
	cases := []geo.Rect{
		geo.RectAround(geo.Pt(7, 7), 0.5),
		{Min: geo.Pt(0.9, 0.9), Max: geo.Pt(0.1, 0.1)},
	}
	for _, rect := range cases {
		owners := r.ownersOf(rect)
		if len(owners) != 1 || owners[0] != 0 {
			t.Errorf("ownersOf(%v) = %v, want [0]", rect, owners)
		}
	}
}

// TestOwnersOfMatchesTileOwners: the shard set of a rectangle is exactly
// the set of owners of its geometrically intersected tiles.
func TestOwnersOfMatchesTileOwners(t *testing.T) {
	r := newTestRouter(t, 8)
	src := rng.New(0x7137)
	for i := 0; i < 2000; i++ {
		c := geo.Pt(src.Float64(), src.Float64())
		rect := geo.RectAround(c, 0.005+0.2*src.Float64()).Clip(testWorld)
		owners := r.ownersOf(rect)
		want := map[int]bool{}
		for _, tl := range bruteCover(r.grid, rect) {
			want[r.owner[tl]] = true
		}
		if len(owners) != len(want) {
			t.Fatalf("ownersOf(%v) = %v, want owners of tiles %v", rect, owners, want)
		}
		for _, s := range owners {
			if !want[s] {
				t.Fatalf("ownersOf(%v) includes shard %d not owning any covered tile", rect, s)
			}
		}
	}
}

// newTestRouter builds a router over nil shard links — enough for the
// pure routing-math tests, which never issue calls.
func newTestRouter(t *testing.T, shards int) *Router {
	t.Helper()
	r, err := New(Config{World: testWorld, Shards: make([]Shard, shards)})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestHilbertCurveVisitsEveryCellByEdgeSteps: the curve hilbertXY walks
// is a bijection onto the side×side grid whose every step moves to an
// edge neighbour — the property that makes curve ranges compact.
func TestHilbertCurveVisitsEveryCellByEdgeSteps(t *testing.T) {
	for _, side := range []int{1, 2, 4, 16, 64} {
		seen := make([]bool, side*side)
		px, py := 0, 0
		for d := 0; d < side*side; d++ {
			x, y := hilbertXY(side, d)
			if x < 0 || y < 0 || x >= side || y >= side || seen[y*side+x] {
				t.Fatalf("side %d: step %d lands on (%d, %d), outside the grid or visited", side, d, x, y)
			}
			seen[y*side+x] = true
			if d > 0 && abs(x-px)+abs(y-py) != 1 {
				t.Fatalf("side %d: step %d jumps from (%d, %d) to (%d, %d)", side, d, px, py, x, y)
			}
			px, py = x, y
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// TestHilbertOwnership: for every grid size and shard count, each shard
// owns one contiguous run of the curve and the shards' tile counts differ
// by at most one; on power-of-two grids each shard's tiles are
// 4-connected.
func TestHilbertOwnership(t *testing.T) {
	for _, tiles := range []int{1, 5, 16, 64} {
		side := 1
		for side < tiles {
			side *= 2
		}
		for n := 1; n <= 8; n++ {
			owners := hilbertOwners(tiles, n)
			if len(owners) != tiles*tiles {
				t.Fatalf("tiles %d, %d shards: %d owners", tiles, n, len(owners))
			}
			counts := make([]int, n)
			last := 0
			for d := 0; d < side*side; d++ {
				x, y := hilbertXY(side, d)
				if x >= tiles || y >= tiles {
					continue
				}
				s := owners[y*tiles+x]
				if s < last || s >= n {
					t.Fatalf("tiles %d, %d shards: shard %d follows shard %d along the curve", tiles, n, s, last)
				}
				last = s
				counts[s]++
			}
			lo, hi := slices.Min(counts), slices.Max(counts)
			if hi-lo > 1 {
				t.Errorf("tiles %d, %d shards: tile counts %v differ by more than one", tiles, n, counts)
			}
			if tiles == side {
				for s := 0; s < n; s++ {
					if got := connectedTiles(owners, tiles, s); got != counts[s] {
						t.Errorf("tiles %d, %d shards: shard %d owns %d tiles, %d of them 4-connected", tiles, n, s, counts[s], got)
					}
				}
			}
		}
	}
}

// connectedTiles counts the tiles of shard s reachable by edge steps
// through s's tiles from the first one it owns.
func connectedTiles(owners []int, tiles, s int) int {
	start := slices.Index(owners, s)
	if start < 0 {
		return 0
	}
	seen := map[int]bool{start: true}
	for stack := []int{start}; len(stack) > 0; {
		tl := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		x, y := tl%tiles, tl/tiles
		for _, nb := range [][2]int{{x - 1, y}, {x + 1, y}, {x, y - 1}, {x, y + 1}} {
			if nb[0] < 0 || nb[1] < 0 || nb[0] >= tiles || nb[1] >= tiles {
				continue
			}
			if n := nb[1]*tiles + nb[0]; owners[n] == s && !seen[n] {
				seen[n] = true
				stack = append(stack, n)
			}
		}
	}
	return len(seen)
}

// TestFourShardsOwnTheQuadrants: on the default 16×16 grid, four shards
// own the four 8×8 quadrants, one each.
func TestFourShardsOwnTheQuadrants(t *testing.T) {
	owners := hilbertOwners(16, 4)
	quadrant := map[int]int{} // shard → quadrant
	for tl, s := range owners {
		q := (tl/16/8)*2 + tl%16/8
		if prev, ok := quadrant[s]; ok && prev != q {
			t.Fatalf("shard %d owns tiles in quadrants %d and %d", s, prev, q)
		}
		quadrant[s] = q
	}
	if len(quadrant) != 4 {
		t.Fatalf("%d shards own tiles, want 4", len(quadrant))
	}
}

// TestOwnershipIgnoresAddrs: the tile map is a function of (tiles, shard
// count) alone — routers over differently addressed fleets agree.
func TestOwnershipIgnoresAddrs(t *testing.T) {
	build := func(addrs []string) []int {
		r, err := New(Config{World: testWorld, Shards: make([]Shard, len(addrs)), Addrs: addrs})
		if err != nil {
			t.Fatal(err)
		}
		return r.Topology().Owners
	}
	a := build([]string{"10.0.0.1:7070", "10.0.0.2:7070", "10.0.0.3:7070"})
	b := build([]string{"db-c:1", "db-a:2", "db-b:3"})
	if !slices.Equal(a, b) || !slices.Equal(a, hilbertOwners(16, 3)) {
		t.Fatal("tile ownership depends on shard addresses")
	}
}
