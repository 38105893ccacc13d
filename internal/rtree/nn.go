package rtree

import (
	"container/heap"
	"math"

	"repro/internal/geo"
)

// queueEntry is an element of the best-first search frontier: either a node
// (item == nil semantics via isItem) or a concrete item, keyed by minimum
// squared distance to the query.
type queueEntry struct {
	dist2  float64
	node   *node
	item   Item
	isItem bool
}

type distQueue []queueEntry

func (q distQueue) Len() int            { return len(q) }
func (q distQueue) Less(i, j int) bool  { return q[i].dist2 < q[j].dist2 }
func (q distQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *distQueue) Push(x interface{}) { *q = append(*q, x.(queueEntry)) }
func (q *distQueue) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

// Browser yields the indexed items in non-decreasing distance from a query
// point — Hjaltason–Samet incremental distance browsing. It serves the
// cold k-NN paths (Nearest, NearestOne); the private-NN candidate
// computation uses the allocation-free MinMaxCandidates descent below
// instead.
type Browser struct {
	q distQueue
	p geo.Point
}

// NewPointBrowser starts distance browsing from a point query.
func (t *Tree) NewPointBrowser(p geo.Point) *Browser {
	b := &Browser{p: p}
	if t.root != nil {
		heap.Push(&b.q, queueEntry{dist2: geo.MinDist2(p, t.root.bounds), node: t.root})
	}
	return b
}

// expand pushes the contents of node n onto the frontier.
func (b *Browser) expand(n *node) {
	if n.leaf {
		for _, item := range n.items {
			heap.Push(&b.q, queueEntry{dist2: b.p.Dist2(item.Loc), item: item, isItem: true})
		}
		return
	}
	for i := range n.children {
		c := &n.children[i]
		heap.Push(&b.q, queueEntry{dist2: geo.MinDist2(b.p, c.bounds), node: c.n})
	}
}

// Next returns the next-nearest item and its squared distance, or ok=false
// when the index is exhausted.
func (b *Browser) Next() (it Item, dist2 float64, ok bool) {
	for b.q.Len() > 0 {
		e := heap.Pop(&b.q).(queueEntry)
		if e.isItem {
			return e.item, e.dist2, true
		}
		b.expand(e.node)
	}
	return Item{}, 0, false
}

// Nearest returns the k items nearest to p in increasing distance order
// (fewer if the tree holds fewer than k items).
func (t *Tree) Nearest(p geo.Point, k int) []Item {
	if k <= 0 {
		return nil
	}
	b := t.NewPointBrowser(p)
	out := make([]Item, 0, k)
	for len(out) < k {
		it, _, ok := b.Next()
		if !ok {
			break
		}
		out = append(out, it)
	}
	return out
}

// NearestOne returns the single nearest item and whether one exists.
func (t *Tree) NearestOne(p geo.Point) (Item, bool) {
	r := t.Nearest(p, 1)
	if len(r) == 0 {
		return Item{}, false
	}
	return r[0], true
}

// minmaxEnt is a pending subtree of the MinMaxCandidates descent, keyed by
// the minimum squared distance from the query region to its bounds.
type minmaxEnt struct {
	d2 float64
	n  *node
}

// MinMaxCandidates computes the min–max candidate set of a rectangle query
// in one allocation-free depth-first descent: it appends to dst every item
// o accepted by match with MinDist²(o, r) ≤ B, where B is the minimum of
// MaxDist²(o, r) over all accepted items (+Inf when there is none), and
// returns the extended slice, B, and the number of nodes visited.
//
// This is the private-NN superset of Figure 5b, and the descent order
// cannot change it: B is order-independent because any item never visited
// sits in a subtree with MinDist² > running-bound ≥ B, so its
// MaxDist² ≥ MinDist² > B cannot lower the minimum, and the subtree holding the minimizer o* can never be
// pruned since its MinDist² ≤ MinDist²(o*) ≤ MaxDist²(o*) = B ≤ every
// running bound. Children are expanded nearest-first so the bound
// tightens as fast as a best-first browse would tighten it, without the
// priority-queue boxing that made such a browse the hottest allocation
// site of the batch engine. A nil match accepts every item.
func (t *Tree) MinMaxCandidates(r geo.Rect, match func(Item) bool, dst []Item) ([]Item, float64, int) {
	bound := math.Inf(1)
	if t.root == nil {
		return dst, bound, 0
	}
	start := len(dst)
	visited := 0
	// The stack bound is depth×fan-out; 128 covers depth 8, and STR packs
	// nodes full, so depth 5 already holds a million points. The append
	// below spills to the heap rather than truncating if exceeded.
	var arr [128]minmaxEnt
	stk := append(arr[:0], minmaxEnt{geo.MinDistRects2(r, t.root.bounds), t.root})
	for len(stk) > 0 {
		e := stk[len(stk)-1]
		stk = stk[:len(stk)-1]
		// Re-check at pop: the bound may have tightened since push.
		if e.d2 > bound {
			continue
		}
		visited++
		n := e.n
		if n.leaf {
			for _, it := range n.items {
				if match != nil && !match(it) {
					continue
				}
				if md := geo.MaxDist2(it.Loc, r); md < bound {
					bound = md
				}
				if geo.MinDist2(it.Loc, r) <= bound {
					dst = append(dst, it)
				}
			}
			continue
		}
		mark := len(stk)
		for i := range n.children {
			c := &n.children[i]
			d2 := geo.MinDistRects2(r, c.bounds)
			if d2 > bound {
				continue
			}
			stk = append(stk, minmaxEnt{d2, c.n})
		}
		// Order the fresh entries farthest-first so the nearest child is on
		// top of the stack; fan-out is ≤ maxEntries, so insertion sort.
		sub := stk[mark:]
		for i := 1; i < len(sub); i++ {
			for j := i; j > 0 && sub[j].d2 > sub[j-1].d2; j-- {
				sub[j], sub[j-1] = sub[j-1], sub[j]
			}
		}
	}
	// Drop entries admitted before the bound reached its final value.
	kept := dst[:start]
	for _, it := range dst[start:] {
		if geo.MinDist2(it.Loc, r) <= bound {
			kept = append(kept, it)
		}
	}
	return kept, bound, visited
}
