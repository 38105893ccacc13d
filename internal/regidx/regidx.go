// Package regidx is a coarse-grid index over rectangles — the server's
// index for cloaked regions, and their only store. Point indexes (R-tree,
// uniform grid) don't fit private data because every entry is a region,
// and cloaked regions vary from degenerate points (k=1 profiles) to
// whole-world rectangles (best-effort cloaks), so the index buckets each
// region under every coarse cell it touches and answers "which regions
// intersect this query" by visiting only the query's cells.
//
// Layout: every region lives once, in a slot of a flat entry array that
// holds its id, its rectangle and the first cell (col, row) of its cell
// range; an id → slot map and a free list of vacated slots complete the
// store. Cells hold int32 slot numbers, so a probe reads each candidate's
// rectangle in place instead of resolving its id through a map. A
// re-upsert whose cell range is unchanged rewrites its slot only; a move
// re-buckets it; a delete frees the slot for the next insert.
//
// Query and QueryHits are exact: they run one probe loop that applies the
// rectangle test to every candidate and emits each intersecting region
// once, as its id or as an (id, region) hit.
package regidx

import (
	"fmt"

	"repro/internal/geo"
)

// Hit is one region a probe found: its id and its stored rectangle.
type Hit struct {
	ID     uint64
	Region geo.Rect
}

// entry is one slot. col < 0 marks a free slot.
type entry struct {
	hit      Hit
	col, row int32 // first cell of the region's cell range
}

// Index buckets rectangles by coarse grid cell. Mutations require external
// serialization; Query and QueryHits are read-only, so any number of
// probes may run concurrently under a shared (read) lock.
type Index struct {
	world      geo.Rect
	cols, rows int
	cells      [][]int32 // slot numbers per cell, row-major
	entries    []entry
	slots      map[uint64]int32
	free       []int32
}

// New builds an empty index with the given resolution.
func New(world geo.Rect, cols, rows int) (*Index, error) {
	if cols <= 0 || rows <= 0 {
		return nil, fmt.Errorf("regidx: non-positive resolution %d×%d", cols, rows)
	}
	if !world.Valid() || world.Area() <= 0 {
		return nil, fmt.Errorf("regidx: invalid world %v", world)
	}
	return &Index{
		world: world,
		cols:  cols,
		rows:  rows,
		cells: make([][]int32, cols*rows),
		slots: make(map[uint64]int32),
	}, nil
}

// Len returns the number of indexed regions.
func (x *Index) Len() int { return len(x.slots) }

// Region returns the stored rectangle for an id.
func (x *Index) Region(id uint64) (geo.Rect, bool) {
	slot, ok := x.slots[id]
	if !ok {
		return geo.Rect{}, false
	}
	return x.entries[slot].hit.Region, true
}

func (x *Index) cellRange(r geo.Rect) (c0, r0, c1, r1 int) {
	clampCol := func(x0 float64, world geo.Rect, cols int) int {
		c := int((x0 - world.Min.X) / world.Width() * float64(cols))
		if c < 0 {
			c = 0
		}
		if c >= cols {
			c = cols - 1
		}
		return c
	}
	clampRow := func(y0 float64, world geo.Rect, rows int) int {
		c := int((y0 - world.Min.Y) / world.Height() * float64(rows))
		if c < 0 {
			c = 0
		}
		if c >= rows {
			c = rows - 1
		}
		return c
	}
	return clampCol(r.Min.X, x.world, x.cols), clampRow(r.Min.Y, x.world, x.rows),
		clampCol(r.Max.X, x.world, x.cols), clampRow(r.Max.Y, x.world, x.rows)
}

// Upsert inserts or replaces a region.
func (x *Index) Upsert(id uint64, region geo.Rect) error {
	if !region.Valid() {
		return fmt.Errorf("regidx: invalid region %v", region)
	}
	c0, r0, c1, r1 := x.cellRange(region)
	slot, ok := x.slots[id]
	if ok {
		e := &x.entries[slot]
		old := e.hit.Region
		oc0, or0, oc1, or1 := x.cellRange(old)
		e.hit.Region = region
		if oc0 == c0 && or0 == r0 && oc1 == c1 && or1 == r1 {
			return nil // same cells: the buckets are already right
		}
		x.unbucket(slot, old)
		e.col, e.row = int32(c0), int32(r0)
	} else {
		e := entry{hit: Hit{ID: id, Region: region}, col: int32(c0), row: int32(r0)}
		if n := len(x.free); n > 0 {
			slot = x.free[n-1]
			x.free = x.free[:n-1]
			x.entries[slot] = e
		} else {
			slot = int32(len(x.entries))
			x.entries = append(x.entries, e)
		}
		x.slots[id] = slot
	}
	for row := r0; row <= r1; row++ {
		for col := c0; col <= c1; col++ {
			ci := row*x.cols + col
			x.cells[ci] = append(x.cells[ci], slot)
		}
	}
	return nil
}

// Delete removes a region and frees its slot; it reports whether the
// region existed.
func (x *Index) Delete(id uint64) bool {
	slot, ok := x.slots[id]
	if !ok {
		return false
	}
	x.unbucket(slot, x.entries[slot].hit.Region)
	delete(x.slots, id)
	x.entries[slot] = entry{col: -1}
	x.free = append(x.free, slot)
	return true
}

// unbucket removes slot from every cell of region's range. It recomputes
// the range rather than taking it from the caller: that keeps the function
// too big to inline, and inlined into Upsert its scan loop spills its
// counter to the stack, which cost a re-upsert ~20% on dense cells.
func (x *Index) unbucket(slot int32, region geo.Rect) {
	c0, r0, c1, r1 := x.cellRange(region)
	for row := r0; row <= r1; row++ {
		for col := c0; col <= c1; col++ {
			ci := row*x.cols + col
			cell := x.cells[ci]
			for i, v := range cell {
				if v == slot {
					cell[i] = cell[len(cell)-1]
					x.cells[ci] = cell[:len(cell)-1]
					break
				}
			}
		}
	}
}

// Query appends to dst the ids of all regions intersecting q and returns
// dst; it is QueryHits without the rectangles.
func (x *Index) Query(q geo.Rect, dst []uint64) []uint64 {
	return probe(x, q, dst, func(e *entry) uint64 { return e.hit.ID })
}

// QueryHits appends to dst an (id, region) hit for every region
// intersecting q and returns dst.
func (x *Index) QueryHits(q geo.Rect, dst []Hit) []Hit {
	return probe(x, q, dst, func(e *entry) Hit { return e.hit })
}

// probe is the one probe loop behind Query and QueryHits: it visits the
// query's cells and appends view(e) for every intersecting entry, exactly
// once (the rectangle test is applied here). It does not mutate the
// index, so concurrent probes are safe under a shared lock. Multi-cell
// queries dedup without allocating: a region is bucketed under every cell
// it touches, so each candidate is processed only at its first cell inside
// the query window — (max of the two ranges' starts), read from the slot —
// which is also exactly where a first-encounter scan would have seen it,
// so emission order is unchanged.
func probe[T any](x *Index, q geo.Rect, dst []T, view func(*entry) T) []T {
	if len(x.slots) == 0 {
		return dst // a wide probe would walk every empty cell
	}
	c0, r0, c1, r1 := x.cellRange(q)
	if c0 == c1 && r0 == r1 {
		for _, slot := range x.cells[r0*x.cols+c0] {
			if e := &x.entries[slot]; e.hit.Region.Intersects(q) {
				dst = append(dst, view(e))
			}
		}
		return dst
	}
	for row := r0; row <= r1; row++ {
		for col := c0; col <= c1; col++ {
			for _, slot := range x.cells[row*x.cols+col] {
				e := &x.entries[slot]
				if max(int(e.row), r0) != row || max(int(e.col), c0) != col {
					continue // seen at an earlier window cell
				}
				if e.hit.Region.Intersects(q) {
					dst = append(dst, view(e))
				}
			}
		}
	}
	return dst
}

// All appends every indexed region's id to dst, in slot order.
func (x *Index) All(dst []uint64) []uint64 {
	for i := range x.entries {
		if e := &x.entries[i]; e.col >= 0 {
			dst = append(dst, e.hit.ID)
		}
	}
	return dst
}
