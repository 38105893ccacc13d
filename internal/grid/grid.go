// Package grid implements a uniform grid index over moving point objects.
// It is the server's index for moving public data (police cars, on-site
// workers), the anonymizer's fallback index for data-dependent cloaking,
// and the substrate for shared continuous-query execution: relocating an
// object between cells is O(1), which is what makes high-rate location
// updates tractable.
package grid

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geo"
)

// Index is a uniform cols×rows grid over a rectangular world. Each cell
// keeps the IDs and exact locations of the objects currently inside it.
// The zero value is unusable; construct with New. Index is not
// goroutine-safe; callers serialize access.
type Index struct {
	world      geo.Rect
	cols, rows int
	cellW      float64
	cellH      float64
	cells      [][]entry         // cell -> entries
	loc        map[uint64]locRef // id -> where it lives
}

type entry struct {
	id uint64
	p  geo.Point
}

type locRef struct {
	cell int
	p    geo.Point
}

// New builds an empty grid with the given resolution. cols and rows must be
// positive and the world must have positive area.
func New(world geo.Rect, cols, rows int) (*Index, error) {
	if cols <= 0 || rows <= 0 {
		return nil, fmt.Errorf("grid: non-positive resolution %d×%d", cols, rows)
	}
	if !world.Valid() || world.Area() <= 0 {
		return nil, fmt.Errorf("grid: invalid world %v", world)
	}
	return &Index{
		world: world,
		cols:  cols,
		rows:  rows,
		cellW: world.Width() / float64(cols),
		cellH: world.Height() / float64(rows),
		cells: make([][]entry, cols*rows),
		loc:   make(map[uint64]locRef),
	}, nil
}

// World returns the indexed area.
func (g *Index) World() geo.Rect { return g.world }

// Len returns the number of indexed objects.
func (g *Index) Len() int { return len(g.loc) }

// CellOf returns the (col, row) of the cell containing p, clamping points
// on or beyond the boundary into the edge cells.
func (g *Index) CellOf(p geo.Point) (col, row int) {
	col = int((p.X - g.world.Min.X) / g.cellW)
	row = int((p.Y - g.world.Min.Y) / g.cellH)
	if col < 0 {
		col = 0
	}
	if col >= g.cols {
		col = g.cols - 1
	}
	if row < 0 {
		row = 0
	}
	if row >= g.rows {
		row = g.rows - 1
	}
	return col, row
}

// CellRect returns the rectangle of cell (col, row).
func (g *Index) CellRect(col, row int) geo.Rect {
	x0 := g.world.Min.X + float64(col)*g.cellW
	y0 := g.world.Min.Y + float64(row)*g.cellH
	return geo.R(x0, y0, x0+g.cellW, y0+g.cellH)
}

func (g *Index) cellIndex(col, row int) int { return row*g.cols + col }

// Upsert inserts the object or moves it to its new location. It returns
// true when the object changed cells (or was new), which is the signal the
// continuous-query engine uses to re-evaluate only affected queries.
func (g *Index) Upsert(id uint64, p geo.Point) bool {
	col, row := g.CellOf(p)
	ci := g.cellIndex(col, row)
	if ref, ok := g.loc[id]; ok {
		if ref.cell == ci {
			// Same cell: update the stored point in place.
			cell := g.cells[ci]
			for i := range cell {
				if cell[i].id == id {
					cell[i].p = p
					break
				}
			}
			g.loc[id] = locRef{cell: ci, p: p}
			return false
		}
		g.removeFromCell(ref.cell, id)
	}
	g.cells[ci] = append(g.cells[ci], entry{id: id, p: p})
	g.loc[id] = locRef{cell: ci, p: p}
	return true
}

// Delete removes the object; it reports whether it was present.
func (g *Index) Delete(id uint64) bool {
	ref, ok := g.loc[id]
	if !ok {
		return false
	}
	g.removeFromCell(ref.cell, id)
	delete(g.loc, id)
	return true
}

func (g *Index) removeFromCell(ci int, id uint64) {
	cell := g.cells[ci]
	for i := range cell {
		if cell[i].id == id {
			cell[i] = cell[len(cell)-1]
			g.cells[ci] = cell[:len(cell)-1]
			return
		}
	}
}

// Location returns the stored location of the object.
func (g *Index) Location(id uint64) (geo.Point, bool) {
	ref, ok := g.loc[id]
	return ref.p, ok
}

// Object pairs an ID with its location in query results.
type Object struct {
	ID  uint64
	Loc geo.Point
}

// Search appends every object inside r to dst and returns the slice.
func (g *Index) Search(r geo.Rect, dst []Object) []Object {
	c0, r0 := g.CellOf(r.Min)
	c1, r1 := g.CellOf(r.Max)
	for row := r0; row <= r1; row++ {
		for col := c0; col <= c1; col++ {
			for _, e := range g.cells[g.cellIndex(col, row)] {
				if r.Contains(e.p) {
					dst = append(dst, Object{ID: e.id, Loc: e.p})
				}
			}
		}
	}
	return dst
}

// Count returns the number of objects inside r.
func (g *Index) Count(r geo.Rect) int {
	c0, r0 := g.CellOf(r.Min)
	c1, r1 := g.CellOf(r.Max)
	n := 0
	for row := r0; row <= r1; row++ {
		for col := c0; col <= c1; col++ {
			ci := g.cellIndex(col, row)
			cr := g.CellRect(col, row)
			if r.ContainsRect(cr) {
				n += len(g.cells[ci])
				continue
			}
			for _, e := range g.cells[ci] {
				if r.Contains(e.p) {
					n++
				}
			}
		}
	}
	return n
}

// CellCount returns the number of objects currently in cell (col, row).
func (g *Index) CellCount(col, row int) int {
	return len(g.cells[g.cellIndex(col, row)])
}

// Nearest returns the k objects nearest to p, expanding the searched cell
// ring until the k-th best distance is covered. Fewer are returned when the
// index holds fewer than k objects.
func (g *Index) Nearest(p geo.Point, k int) []Object {
	if k <= 0 || len(g.loc) == 0 {
		return nil
	}
	if k > len(g.loc) {
		k = len(g.loc)
	}
	pc, pr := g.CellOf(p)
	best := make([]Object, 0, k+8)
	// kth tracks the current k-th smallest distance² (∞ until k found).
	kth := math.Inf(1)
	consider := func(e entry) {
		best = append(best, Object{ID: e.id, Loc: e.p})
	}
	maxRing := g.cols
	if g.rows > maxRing {
		maxRing = g.rows
	}
	for ring := 0; ring <= maxRing; ring++ {
		// Stop when the nearest possible point of this ring is beyond the
		// current k-th distance and we already have k candidates.
		if len(best) >= k {
			ringDist := float64(ring-1) * math.Min(g.cellW, g.cellH)
			if ringDist > 0 && ringDist*ringDist > kth {
				break
			}
		}
		g.forEachRingCell(pc, pr, ring, func(ci int) {
			for _, e := range g.cells[ci] {
				consider(e)
			}
		})
		if len(best) >= k {
			sort.Slice(best, func(i, j int) bool {
				return p.Dist2(best[i].Loc) < p.Dist2(best[j].Loc)
			})
			if len(best) > 4*k {
				best = best[:k] // trim to keep the sort cheap
			}
			kth = p.Dist2(best[min(k, len(best))-1].Loc)
		}
	}
	sort.Slice(best, func(i, j int) bool {
		return p.Dist2(best[i].Loc) < p.Dist2(best[j].Loc)
	})
	if len(best) > k {
		best = best[:k]
	}
	return best
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// forEachRingCell visits the cells at Chebyshev distance ring from (pc, pr).
func (g *Index) forEachRingCell(pc, pr, ring int, fn func(ci int)) {
	if ring == 0 {
		fn(g.cellIndex(pc, pr))
		return
	}
	for col := pc - ring; col <= pc+ring; col++ {
		if col < 0 || col >= g.cols {
			continue
		}
		for _, row := range [2]int{pr - ring, pr + ring} {
			if row >= 0 && row < g.rows {
				fn(g.cellIndex(col, row))
			}
		}
	}
	for row := pr - ring + 1; row <= pr+ring-1; row++ {
		if row < 0 || row >= g.rows {
			continue
		}
		for _, col := range [2]int{pc - ring, pc + ring} {
			if col >= 0 && col < g.cols {
				fn(g.cellIndex(col, row))
			}
		}
	}
}

// All appends every indexed object to dst.
func (g *Index) All(dst []Object) []Object {
	for _, cell := range g.cells {
		for _, e := range cell {
			dst = append(dst, Object{ID: e.id, Loc: e.p})
		}
	}
	return dst
}
