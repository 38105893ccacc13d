package server

import (
	"math"
	"sync/atomic"

	"repro/internal/geo"
)

// The answer memo. A private NN answer is a function of the stationary
// store, the query region and the class; a class-filtered private range
// answer is a function of those, the radius and the mode (Figure 5). A
// store is immutable, so its pointer is its version, and the memo hangs
// off the store: a load or a restore builds a new store with an empty
// memo, and no answer can outlive the data it was computed from.
// Space-dependent cloaks come from a fixed cell set (invariant I4), so the
// same regions are asked about again and again; the memo answers a repeat
// without running the kernel.
//
// An entry holds the answer's store slots in ascending order, not the
// objects or their encoding: a slot is 8 bytes against a PublicObject's
// 40, and a hit resolves the slots into a fresh answer, so no caller can
// alias memo state. The table is direct-mapped and lock-free: a reader
// loads one entry pointer and compares the key, a writer stores a new
// immutable entry over whatever the position held. Placement and eviction
// decide only which answers are memoized, never an answer's bytes.
//
// The table is sized from the distinct keys real traffic asks about:
// hundreds per workload (EXPERIMENTS E31). A few hundred keys in 1,024
// positions collide often enough that most misses are two keys evicting
// each other; in 4,096 such collisions are rare.

// memoKind tells the memoized answer forms apart.
type memoKind uint8

const (
	memoNN      memoKind = iota + 1 // PrivateNN: survivors and superset size
	memoNNParts                     // PrivateNNParts: min–max candidates and bound
	memoRange                       // class-filtered PrivateRange
)

const (
	// memoSize is the number of direct-mapped entries per store, a power
	// of two: a 32 KiB table.
	memoSize = 4096
	// memoMaxSlots bounds the slots a store's memo holds at once, 16 MiB
	// of them; an answer that does not fit is recomputed on every call.
	memoMaxSlots = 1 << 21
)

// memoKey identifies a kernel's inputs. The float fields are bit
// patterns, so equal keys mean bit-identical inputs (a valid query has no
// NaN). The class is the store's interned id, and every class filter that
// passes all stored objects keys as all, because the kernels read nothing
// else of the class.
type memoKey struct {
	kind   memoKind
	mode   RangeMode
	all    bool
	class  uint32
	region [4]uint64
	radius uint64
}

// memoEntry is one memoized answer; it is never mutated once stored.
type memoEntry struct {
	key      memoKey
	slots    []uint64 // the answer's store slots, ascending
	superset int      // memoNN: PrivateNNResult.SupersetSize
	bound    float64  // memoNNParts: NNParts.Bound
}

// answerMemo is a store's memo table. The seed varies the placement per
// store, so no fixed set of regions collides on every server. held counts
// the slots of every stored entry from before it is stored until after it
// is removed, so the entries in the table never hold more than
// memoMaxSlots.
type answerMemo struct {
	seed  uint64
	held  atomic.Int64
	table [memoSize]atomic.Pointer[memoEntry]
}

// memoKey builds the key of one query against st.
func (st *stationaryStore) memoKey(kind memoKind, region geo.Rect, class string, radius float64, mode RangeMode) memoKey {
	k := memoKey{kind: kind, mode: mode, radius: math.Float64bits(radius),
		region: [4]uint64{math.Float64bits(region.Min.X), math.Float64bits(region.Min.Y),
			math.Float64bits(region.Max.X), math.Float64bits(region.Max.Y)}}
	if c, all := st.classID(class); all {
		k.all = true
	} else {
		k.class = c
	}
	return k
}

// index is the key's table position: murmur3's 64-bit finalizer chained
// over the key's words.
func (m *answerMemo) index(k *memoKey) int {
	h := m.seed ^ (uint64(k.kind) | uint64(k.mode)<<8 | uint64(k.class)<<32)
	if k.all {
		h ^= 1 << 16
	}
	for _, w := range [...]uint64{k.region[0], k.region[1], k.region[2], k.region[3], k.radius} {
		h = fmix64(h ^ w)
	}
	return int(fmix64(h) & (memoSize - 1))
}

func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// get returns the entry memoized under k, or nil.
func (m *answerMemo) get(k memoKey) *memoEntry {
	if e := m.table[m.index(&k)].Load(); e != nil && e.key == k {
		return e
	}
	return nil
}

// put memoizes e in place of what its position held, if e's slots fit
// the budget. The position is emptied first, so a memo at its budget
// still turns over.
func (m *answerMemo) put(e *memoEntry) {
	pos := &m.table[m.index(&e.key)]
	m.release(pos.Swap(nil))
	n := int64(len(e.slots))
	if m.held.Add(n) > memoMaxSlots {
		m.held.Add(-n)
		return
	}
	m.release(pos.Swap(e))
}

// release returns a removed entry's slots to the budget.
func (m *answerMemo) release(e *memoEntry) {
	if e != nil {
		m.held.Add(-int64(len(e.slots)))
	}
}

// memoGet looks k up in st's memo and counts the hit or the miss.
func (s *Server) memoGet(st *stationaryStore, k memoKey) *memoEntry {
	e := st.memo.get(k)
	if e != nil {
		s.met.memoHits.Inc()
	} else {
		s.met.memoMisses.Inc()
	}
	return e
}

// memoPut memoizes a computed answer in st's memo: e with a copy of its
// sorted slots, which the caller's scratch still owns.
func memoPut(st *stationaryStore, e memoEntry, slots []uint64) {
	if len(slots) > memoMaxSlots {
		return
	}
	if len(slots) > 0 {
		e.slots = append(make([]uint64, 0, len(slots)), slots...)
	}
	st.memo.put(&e)
}
