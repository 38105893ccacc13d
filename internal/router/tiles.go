package router

import "repro/internal/geo"

// tileGrid partitions the world into a cols×rows grid of closed tiles.
// Tiles are the unit of ownership: each shard owns one Hilbert-curve
// range of them (hilbertOwners), and every routing decision reduces to
// either "which tile holds this point" or "which tiles does this
// rectangle intersect".
//
// Two deliberate asymmetries keep the routing exact:
//
//   - Point assignment (tileOf) is a function: every world point maps to
//     exactly one tile, boundary points to the lowest-index tile whose
//     closed rectangle contains them. Point-addressed data (stationary
//     and moving objects) lives on exactly one shard.
//   - Rectangle coverage (cover) uses *closed* tile rectangles: a query
//     rectangle touching a tile edge covers both neighbors. Coverage is
//     therefore a superset of every tile any relevant point can live in,
//     which is what the scatter completeness proofs need.
type tileGrid struct {
	world      geo.Rect
	cols, rows int
}

// tiles returns the total tile count.
func (g tileGrid) tiles() int { return g.cols * g.rows }

// xb returns the i-th vertical tile boundary (i in 0..cols). Both
// tileRect and tileOf derive boundaries from this one expression, so the
// two can never disagree about where a tile ends.
func (g tileGrid) xb(i int) float64 {
	if i >= g.cols {
		return g.world.Max.X
	}
	return g.world.Min.X + float64(i)*(g.world.Max.X-g.world.Min.X)/float64(g.cols)
}

// yb returns the j-th horizontal tile boundary (j in 0..rows).
func (g tileGrid) yb(j int) float64 {
	if j >= g.rows {
		return g.world.Max.Y
	}
	return g.world.Min.Y + float64(j)*(g.world.Max.Y-g.world.Min.Y)/float64(g.rows)
}

// tileRect returns tile t's closed rectangle.
func (g tileGrid) tileRect(t int) geo.Rect {
	c, r := t%g.cols, t/g.cols
	return geo.Rect{
		Min: geo.Point{X: g.xb(c), Y: g.yb(r)},
		Max: geo.Point{X: g.xb(c + 1), Y: g.yb(r + 1)},
	}
}

// tileOf maps a world point to its unique owning tile. The float division
// is only a first guess; the result is corrected against the exact
// boundary expressions until tileRect(tileOf(p)) provably contains p —
// the invariant the coverage proofs rest on.
func (g tileGrid) tileOf(p geo.Point) int {
	c := clampIdx(int((p.X-g.world.Min.X)/(g.world.Max.X-g.world.Min.X)*float64(g.cols)), g.cols)
	for c > 0 && p.X < g.xb(c) {
		c--
	}
	for c < g.cols-1 && p.X > g.xb(c+1) {
		c++
	}
	r := clampIdx(int((p.Y-g.world.Min.Y)/(g.world.Max.Y-g.world.Min.Y)*float64(g.rows)), g.rows)
	for r > 0 && p.Y < g.yb(r) {
		r--
	}
	for r < g.rows-1 && p.Y > g.yb(r+1) {
		r++
	}
	return r*g.cols + c
}

// cover returns the tiles whose closed rectangles intersect rect, in
// ascending tile order. A rectangle that misses the world entirely (or is
// invalid) covers nothing. The index window is estimated by division and
// widened by two (one tile for float rounding of the guess, one for
// closed tiles sharing the touched boundary), then filtered with the
// exact geometric test, so the result equals the brute-force "every tile
// t with tileRect(t) ∩ rect ≠ ∅" — the property the tile-assignment test
// pins down.
func (g tileGrid) cover(rect geo.Rect) []int {
	clamped, ok := rect.Intersect(g.world)
	if !ok {
		return nil
	}
	w := g.world.Max.X - g.world.Min.X
	h := g.world.Max.Y - g.world.Min.Y
	c0 := clampIdx(int((clamped.Min.X-g.world.Min.X)/w*float64(g.cols))-2, g.cols)
	c1 := clampIdx(int((clamped.Max.X-g.world.Min.X)/w*float64(g.cols))+2, g.cols)
	r0 := clampIdx(int((clamped.Min.Y-g.world.Min.Y)/h*float64(g.rows))-2, g.rows)
	r1 := clampIdx(int((clamped.Max.Y-g.world.Min.Y)/h*float64(g.rows))+2, g.rows)
	var out []int
	for r := r0; r <= r1; r++ {
		for c := c0; c <= c1; c++ {
			t := r*g.cols + c
			if g.tileRect(t).Intersects(clamped) {
				out = append(out, t)
			}
		}
	}
	return out
}

// hilbertOwners maps each tile of a tiles×tiles grid (row-major id) to
// one of n shards. Tiles are ordered along the Hilbert curve of the
// smallest power-of-two grid covering theirs, skipping the curve's cells
// outside it, and with T tiles shard s owns curve positions
// [s·T/n, (s+1)·T/n). Consecutive curve cells share an edge, so on a
// power-of-two grid each shard owns one 4-connected block — for 4 shards
// on 16×16, the four quadrants — and a cloak-sized rectangle mostly falls
// inside one block. The map is a pure function of (tiles, n).
func hilbertOwners(tiles, n int) []int {
	side := 1
	for side < tiles {
		side *= 2
	}
	order := make([]int, 0, tiles*tiles) // tile ids in curve order
	for d := 0; d < side*side; d++ {
		if x, y := hilbertXY(side, d); x < tiles && y < tiles {
			order = append(order, y*tiles+x)
		}
	}
	owners := make([]int, len(order))
	for pos, t := range order {
		owners[t] = pos * n / len(order)
	}
	return owners
}

// hilbertXY returns the cell at distance d along the Hilbert curve that
// fills a side×side grid (side a power of two).
func hilbertXY(side, d int) (x, y int) {
	for s := 1; s < side; s *= 2 {
		rx := 1 & (d / 2)
		ry := 1 & (d ^ rx)
		if ry == 0 {
			if rx == 1 {
				x, y = s-1-x, s-1-y
			}
			x, y = y, x
		}
		x, y = x+s*rx, y+s*ry
		d /= 4
	}
	return x, y
}

// clampIdx clamps i into [0, n).
func clampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}
