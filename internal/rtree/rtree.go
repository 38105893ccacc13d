// Package rtree implements a static in-memory R-tree over point data: the
// spatial index the privacy-aware database server uses for its stationary
// public data (gas stations, restaurants, hospitals, ...). A tree is built
// once by Sort-Tile-Recursive (STR) bulk loading and never edited; the
// server replaces the whole tree when the stationary set is reloaded. It
// answers rectangle range searches, the min–max candidate descent behind
// the private nearest-neighbor query processor, and best-first
// (priority-queue) nearest-neighbor search.
package rtree

import (
	"fmt"

	"repro/internal/geo"
)

// Item is an indexed point object.
type Item struct {
	ID  uint64
	Loc geo.Point
}

// maxEntries is the node fan-out M: STR fills every node but the last of
// each tile to exactly M entries.
const maxEntries = 16

// child is an inner-node entry: the child's bounding rectangle stored
// inline next to the pointer so a descent decides which subtrees to enter
// from one contiguous scan of the parent's entry array, without chasing a
// pointer per child just to read its rectangle. The inline copy must equal
// child.n.bounds (checkInvariants enforces it).
type child struct {
	bounds geo.Rect
	n      *node
}

type node struct {
	bounds   geo.Rect
	leaf     bool
	items    []Item  // populated when leaf
	children []child // populated when !leaf
}

// recomputeBounds sets the bounds of a freshly packed node, which is never
// empty.
func (n *node) recomputeBounds() {
	if n.leaf {
		b := geo.PointRect(n.items[0].Loc)
		for _, it := range n.items[1:] {
			b = b.UnionPoint(it.Loc)
		}
		n.bounds = b
		return
	}
	b := n.children[0].bounds
	for _, c := range n.children[1:] {
		b = b.Union(c.bounds)
	}
	n.bounds = b
}

// Tree is a bulk-loaded R-tree over point items. The zero value is an
// empty tree. A tree is never mutated after BulkLoad returns, so any number
// of goroutines may query it at once.
type Tree struct {
	root *node
	size int
}

// Len returns the number of indexed items.
func (t *Tree) Len() int { return t.size }

// Search appends to dst every item whose location lies inside r (closed
// rectangle semantics) and returns the extended slice.
func (t *Tree) Search(r geo.Rect, dst []Item) []Item {
	out, _ := t.SearchVisits(r, dst)
	return out
}

// SearchVisits is Search plus the number of tree nodes visited — the index
// I/O proxy the observability layer exports per query.
func (t *Tree) SearchVisits(r geo.Rect, dst []Item) ([]Item, int) {
	if t.root == nil || !t.root.bounds.Intersects(r) {
		return dst, 0
	}
	visits := 0
	dst = searchNode(t.root, r, dst, &visits)
	return dst, visits
}

// searchNode collects matches from a subtree whose bounds are already
// known to intersect r (the caller filters on the inline child rectangles,
// so a non-intersecting subtree is never entered).
func searchNode(n *node, r geo.Rect, dst []Item, visits *int) []Item {
	*visits++
	if n.leaf {
		for _, it := range n.items {
			if r.Contains(it.Loc) {
				dst = append(dst, it)
			}
		}
		return dst
	}
	for i := range n.children {
		c := &n.children[i]
		if c.bounds.Intersects(r) {
			dst = searchNode(c.n, r, dst, visits)
		}
	}
	return dst
}

// checkInvariants validates structural invariants; used by tests.
func (t *Tree) checkInvariants() error {
	if t.root == nil {
		if t.size != 0 {
			return fmt.Errorf("nil root with size %d", t.size)
		}
		return nil
	}
	n, err := checkNode(t.root, true)
	if err != nil {
		return err
	}
	if n != t.size {
		return fmt.Errorf("size %d but %d items reachable", t.size, n)
	}
	return nil
}

func checkNode(n *node, isRoot bool) (int, error) {
	// Minimum fill is a packing heuristic, not a correctness invariant:
	// STR bulk loading legitimately leaves one underfull node per level, so
	// the checker enforces only non-emptiness and the maximum fan-out.
	if n.leaf {
		if !isRoot && (len(n.items) == 0 || len(n.items) > maxEntries) {
			return 0, fmt.Errorf("leaf fill %d outside [1,%d]", len(n.items), maxEntries)
		}
		for _, it := range n.items {
			if !n.bounds.Contains(it.Loc) {
				return 0, fmt.Errorf("item %d outside leaf bounds", it.ID)
			}
		}
		return len(n.items), nil
	}
	if !isRoot && (len(n.children) == 0 || len(n.children) > maxEntries) {
		return 0, fmt.Errorf("inner fill %d outside [1,%d]", len(n.children), maxEntries)
	}
	total := 0
	for i := range n.children {
		c := &n.children[i]
		// The inline rectangle is a cache of the child's own bounds; any
		// drift means a mutation path forgot to refresh it.
		if !c.bounds.Eq(c.n.bounds) {
			return 0, fmt.Errorf("inline child bounds %v stale vs node bounds %v", c.bounds, c.n.bounds)
		}
		if !n.bounds.ContainsRect(c.bounds) {
			return 0, fmt.Errorf("child bounds %v escape parent %v", c.bounds, n.bounds)
		}
		sub, err := checkNode(c.n, false)
		if err != nil {
			return 0, err
		}
		total += sub
	}
	return total, nil
}
