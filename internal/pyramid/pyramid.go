// Package pyramid implements an incrementally-maintained multi-level grid
// of user counts over a rectangular world: level 0 is a single cell
// covering the whole space and level l is a 2^l × 2^l grid, so the cells of
// consecutive levels nest exactly like a complete PR quadtree.
//
// The pyramid is the data structure behind the space-dependent location
// anonymizer of Figure 4: top-down quadtree cloaking descends its levels
// and fixed/multi-level grid cloaking reads one level directly. Because
// only per-cell counters are stored — never exact coordinates — the
// anonymizer built on it satisfies the paper's "no exact location storage"
// goal, and counter maintenance under a location update is O(height).
package pyramid

import (
	"fmt"

	"repro/internal/geo"
)

// MaxHeight bounds the pyramid height; 2^(MaxHeight-1) cells per side at
// the bottom level (16 levels = 32768² cells) is far beyond any useful
// anonymization resolution.
const MaxHeight = 16

// Cell identifies one cell of the pyramid.
type Cell struct {
	Level    int // 0 = root
	Col, Row int // in [0, 2^Level)
}

// String implements fmt.Stringer.
func (c Cell) String() string { return fmt.Sprintf("L%d(%d,%d)", c.Level, c.Col, c.Row) }

// Parent returns the containing cell one level up. The root is its own
// parent.
func (c Cell) Parent() Cell {
	if c.Level == 0 {
		return c
	}
	return Cell{Level: c.Level - 1, Col: c.Col / 2, Row: c.Row / 2}
}

// Child returns the quadrant child (dx, dy ∈ {0,1}) one level down.
func (c Cell) Child(dx, dy int) Cell {
	return Cell{Level: c.Level + 1, Col: c.Col*2 + dx, Row: c.Row*2 + dy}
}

// Pyramid maintains user counts at every level. It performs no locking of
// its own: any number of readers (Count, CellAt, CountRegion, the cloaking
// descents built on them) may run concurrently as long as no writer
// (Insert, Move, Upsert, Remove) runs at the same time. The sharded
// anonymizer enforces that discipline with a reader/writer lock — a single
// writer applies relocations in batches while cloaking readers run in
// parallel between write sections.
type Pyramid struct {
	world  geo.Rect
	height int             // number of levels
	counts [][]int         // counts[level][row*side+col]
	cellOf map[uint64]Cell // user id -> bottom-level cell
}

// New builds an empty pyramid of the given height (≥ 1 levels) over world.
func New(world geo.Rect, height int) (*Pyramid, error) {
	if height < 1 || height > MaxHeight {
		return nil, fmt.Errorf("pyramid: height %d outside [1,%d]", height, MaxHeight)
	}
	if !world.Valid() || world.Area() <= 0 {
		return nil, fmt.Errorf("pyramid: invalid world %v", world)
	}
	p := &Pyramid{
		world:  world,
		height: height,
		counts: make([][]int, height),
		cellOf: make(map[uint64]Cell),
	}
	for l := 0; l < height; l++ {
		side := 1 << l
		p.counts[l] = make([]int, side*side)
	}
	return p, nil
}

// World returns the covered area.
func (p *Pyramid) World() geo.Rect { return p.world }

// Height returns the number of levels.
func (p *Pyramid) Height() int { return p.height }

// Len returns the number of tracked users.
func (p *Pyramid) Len() int { return len(p.cellOf) }

// side returns cells per side at a level.
func side(level int) int { return 1 << level }

// CellAt returns the cell of the given level containing the point,
// clamping boundary points into edge cells.
func (p *Pyramid) CellAt(level int, pt geo.Point) Cell {
	s := side(level)
	fx := (pt.X - p.world.Min.X) / p.world.Width()
	fy := (pt.Y - p.world.Min.Y) / p.world.Height()
	col := int(fx * float64(s))
	row := int(fy * float64(s))
	if col < 0 {
		col = 0
	}
	if col >= s {
		col = s - 1
	}
	if row < 0 {
		row = 0
	}
	if row >= s {
		row = s - 1
	}
	return Cell{Level: level, Col: col, Row: row}
}

// Rect returns the spatial extent of a cell.
func (p *Pyramid) Rect(c Cell) geo.Rect {
	s := float64(side(c.Level))
	w := p.world.Width() / s
	h := p.world.Height() / s
	x0 := p.world.Min.X + float64(c.Col)*w
	y0 := p.world.Min.Y + float64(c.Row)*h
	return geo.R(x0, y0, x0+w, y0+h)
}

// CellArea returns the area of any cell at the given level.
func (p *Pyramid) CellArea(level int) float64 {
	s := float64(int64(1) << uint(2*level))
	return p.world.Area() / s
}

// Count returns the number of users currently inside a cell.
func (p *Pyramid) Count(c Cell) int {
	if c.Level < 0 || c.Level >= p.height {
		return 0
	}
	s := side(c.Level)
	if c.Col < 0 || c.Col >= s || c.Row < 0 || c.Row >= s {
		return 0
	}
	return p.counts[c.Level][c.Row*s+c.Col]
}

// bump adjusts the counters on the path from the bottom cell to the root.
func (p *Pyramid) bump(bottom Cell, delta int) {
	c := bottom
	for {
		s := side(c.Level)
		p.counts[c.Level][c.Row*s+c.Col] += delta
		if c.Level == 0 {
			return
		}
		c = c.Parent()
	}
}

// Insert registers a user at pt. Inserting an existing id is an error; use
// Move for location updates.
func (p *Pyramid) Insert(id uint64, pt geo.Point) error {
	if _, ok := p.cellOf[id]; ok {
		return fmt.Errorf("pyramid: user %d already present", id)
	}
	bottom := p.CellAt(p.height-1, pt)
	p.cellOf[id] = bottom
	p.bump(bottom, +1)
	return nil
}

// Move relocates a user. It returns true when the user changed bottom-level
// cells (the signal that downstream cloaks may need refreshing) and an
// error when the user is unknown.
func (p *Pyramid) Move(id uint64, pt geo.Point) (changed bool, err error) {
	old, ok := p.cellOf[id]
	if !ok {
		return false, fmt.Errorf("pyramid: user %d not present", id)
	}
	bottom := p.CellAt(p.height-1, pt)
	if bottom == old {
		return false, nil
	}
	p.bump(old, -1)
	p.bump(bottom, +1)
	p.cellOf[id] = bottom
	return true, nil
}

// Upsert inserts a new user or relocates an existing one — the combined
// write the anonymizer's update path needs. It reports whether the user's
// bottom-level cell changed (always true for a new user).
func (p *Pyramid) Upsert(id uint64, pt geo.Point) (changed bool) {
	if _, ok := p.cellOf[id]; ok {
		changed, _ = p.Move(id, pt)
		return changed
	}
	_ = p.Insert(id, pt)
	return true
}

// Remove deregisters a user; it reports whether the user was present.
func (p *Pyramid) Remove(id uint64) bool {
	old, ok := p.cellOf[id]
	if !ok {
		return false
	}
	p.bump(old, -1)
	delete(p.cellOf, id)
	return true
}

// UserCell returns the bottom-level cell of a user.
func (p *Pyramid) UserCell(id uint64) (Cell, bool) {
	c, ok := p.cellOf[id]
	return c, ok
}

// AncestorAt returns the ancestor of a bottom cell at the given level.
func AncestorAt(bottom Cell, level int) Cell {
	c := bottom
	for c.Level > level {
		c = c.Parent()
	}
	return c
}

// CountRegion returns the number of users in the union of bottom-level
// cells covered by [c0..c1] (inclusive cell ranges at one level). Both
// cells must be on the same level; the range is normalized.
func (p *Pyramid) CountRegion(level, col0, row0, col1, row1 int) int {
	if col0 > col1 {
		col0, col1 = col1, col0
	}
	if row0 > row1 {
		row0, row1 = row1, row0
	}
	s := side(level)
	if col0 < 0 {
		col0 = 0
	}
	if row0 < 0 {
		row0 = 0
	}
	if col1 >= s {
		col1 = s - 1
	}
	if row1 >= s {
		row1 = s - 1
	}
	n := 0
	for row := row0; row <= row1; row++ {
		for col := col0; col <= col1; col++ {
			n += p.counts[level][row*s+col]
		}
	}
	return n
}

// CountWithin returns the number of users in cells lying entirely inside
// region: a conservative lower bound on the users in region, exactly what
// k-anonymity validation needs. The descent adds a contained cell's count
// whole, skips empty cells and cells whose overlap with region has zero
// area, and drops bottom cells only partly inside.
//
// Pruning by area rather than by closed intersection changes no count (a
// cell that only touches region cannot lie inside it) but bounds the walk.
// For a region that is itself a pyramid cell, each level above it has one
// cell overlapping it (cell edges are exact when the world's extent is a
// power of two), so at most 4·Height()+1 cells are visited; for any other
// region the walk follows its boundary, one bottom cell wide.
func (p *Pyramid) CountWithin(region geo.Rect) int {
	n, _ := p.countWithin(Cell{}, region)
	return n
}

// countWithin is CountWithin's descent from c; it also returns the number
// of cells visited, which the tests bound.
func (p *Pyramid) countWithin(c Cell, region geo.Rect) (n, visited int) {
	r := p.Rect(c)
	if !region.Overlaps(r) {
		return 0, 1
	}
	if region.ContainsRect(r) {
		return p.Count(c), 1
	}
	if c.Level == p.height-1 || p.Count(c) == 0 {
		return 0, 1
	}
	visited = 1
	for dy := 0; dy < 2; dy++ {
		for dx := 0; dx < 2; dx++ {
			cn, cv := p.countWithin(c.Child(dx, dy), region)
			n += cn
			visited += cv
		}
	}
	return n, visited
}

// RegionRect returns the spatial extent of the inclusive cell range.
func (p *Pyramid) RegionRect(level, col0, row0, col1, row1 int) geo.Rect {
	if col0 > col1 {
		col0, col1 = col1, col0
	}
	if row0 > row1 {
		row0, row1 = row1, row0
	}
	a := p.Rect(Cell{Level: level, Col: col0, Row: row0})
	b := p.Rect(Cell{Level: level, Col: col1, Row: row1})
	return a.Union(b)
}

// checkInvariants verifies that every level's total equals the user count
// and that each parent equals the sum of its children. Used by tests.
func (p *Pyramid) checkInvariants() error {
	for l := 0; l < p.height; l++ {
		total := 0
		for _, c := range p.counts[l] {
			if c < 0 {
				return fmt.Errorf("negative count at level %d", l)
			}
			total += c
		}
		if total != len(p.cellOf) {
			return fmt.Errorf("level %d total %d != population %d", l, total, len(p.cellOf))
		}
	}
	for l := 0; l+1 < p.height; l++ {
		s := side(l)
		for row := 0; row < s; row++ {
			for col := 0; col < s; col++ {
				parent := Cell{Level: l, Col: col, Row: row}
				sum := 0
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						sum += p.Count(parent.Child(dx, dy))
					}
				}
				if sum != p.Count(parent) {
					return fmt.Errorf("cell %v count %d != children sum %d", parent, p.Count(parent), sum)
				}
			}
		}
	}
	return nil
}
