// Package server implements the privacy-aware location-based database
// server of Section 6: it stores public data with exact locations
// (stationary objects in an R-tree, moving objects in a grid index) and
// private data as cloaked regions only, and processes the paper's two novel
// query classes — private queries over public data (Figure 5) and public
// queries over private data (Figure 6) — plus continuous count queries with
// the incremental shared execution of Section 5.3.
//
// The server never sees an exact location of an anonymized user: the only
// private-data write path accepts rectangles. That invariant (I9 in
// DESIGN.md) is enforced by construction and asserted in tests.
package server

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/codec"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/regidx"
	"repro/internal/rtree"
	"repro/internal/trace"
)

// PublicObject is a public-data item: exact location, never hidden.
type PublicObject struct {
	ID    uint64
	Class string
	Loc   geo.Point
}

// PrivateRecord is what the server stores about an anonymized user: her
// cloaked region and nothing else.
type PrivateRecord struct {
	ID     uint64
	Region geo.Rect
}

// SortObjects puts a candidate list into the canonical result order:
// ascending by (ID, Class, Loc.X, Loc.Y). Every query path sorts its
// answer with this one comparator, so a result assembled from partitions
// of the data (the routing tier's scatter/gather) is bit-identical to the
// single-server answer. The key is total over the objects any one answer
// can contain: stationary ids are unique, and a moving object that reuses
// a stationary id differs in class or location.
func SortObjects(objs []PublicObject) {
	slices.SortFunc(objs, cmpObjects)
}

// cmpObjects is the canonical result-order comparator behind SortObjects,
// in the three-way form slices.SortFunc takes (which avoids the
// reflect-based swapping of sort.Slice on this hot comparator); the range
// kernel merges per-member runs with it too. Ties across every key mean
// the structs are identical, so the unstable sort cannot produce an
// observable reordering.
func cmpObjects(a, b PublicObject) int {
	if c := cmp.Compare(a.ID, b.ID); c != 0 {
		return c
	}
	if c := strings.Compare(a.Class, b.Class); c != 0 {
		return c
	}
	return cmpLoc(a.Loc, b.Loc)
}

// cmpLoc orders locations by X, then Y (locations are never NaN: every
// write path checks them against the world).
func cmpLoc(a, b geo.Point) int {
	if c := cmp.Compare(a.X, b.X); c != 0 {
		return c
	}
	return cmp.Compare(a.Y, b.Y)
}

// Server is the privacy-aware location-based database server. All methods
// are safe for concurrent use.
type Server struct {
	mu    sync.RWMutex
	world geo.Rect

	// Public data: the stationary store (R-tree leaves carry slots into
	// it), replaced whole by every load and never edited, and the moving
	// grid. A new store is stored under the write lock; a reader loads it
	// without the lock (stationary) or, when it also reads other state,
	// under the read lock.
	st     atomic.Pointer[stationaryStore]
	moving *grid.Index

	// Private data: each user's cloaked region, stored once in a slot of
	// the coarse rectangle index, which lets range-shaped public queries
	// skip non-intersecting users entirely and read the rest in place.
	privIdx *regidx.Index

	// Continuous queries (continuous.go, contprivate.go).
	cont     *continuousEngine
	contPriv *contPrivEngine

	// queryWorkers is the BatchQuery worker-pool width (batch.go), and
	// batchPool recycles each call's coordination scratch (*batchCoord)
	// so a steady stream of queries, batched or single, stops allocating
	// its intermediates per call.
	queryWorkers int
	batchPool    sync.Pool

	// Observability series (metrics.go) and span recording (trace.go;
	// tracer is nil-safe, so an un-traced server pays only nil checks).
	met    *metrics
	tracer *trace.Tracer
}

// Config configures a Server.
type Config struct {
	// World bounds all data. Required.
	World geo.Rect
	// Metrics is the registry the server registers its lbs_* series in.
	// Optional; a private registry is created when nil, so instrumentation
	// is always live and Registry() always works.
	Metrics *obs.Registry
	// QueryWorkers is the worker-pool width BatchQuery fans its entries
	// out to (default GOMAXPROCS; 1 = a plain loop).
	QueryWorkers int
	// Tracer records pipeline-stage spans for traced requests (the *Ctx
	// entry points). Optional; nil disables span recording.
	Tracer *trace.Tracer
}

// movingGridCols/Rows is the moving-object index resolution.
const movingGridCols, movingGridRows = 64, 64

// New builds an empty server.
func New(cfg Config) (*Server, error) {
	if !cfg.World.Valid() || cfg.World.Area() <= 0 {
		return nil, fmt.Errorf("server: invalid world %v", cfg.World)
	}
	mov, err := grid.New(cfg.World, movingGridCols, movingGridRows)
	if err != nil {
		return nil, err
	}
	pidx, err := regidx.New(cfg.World, 32, 32)
	if err != nil {
		return nil, err
	}
	workers := cfg.QueryWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		world:        cfg.World,
		moving:       mov,
		privIdx:      pidx,
		queryWorkers: workers,
		met:          newMetrics(cfg.Metrics),
		tracer:       cfg.Tracer,
	}
	s.st.Store(newStationaryStore(nil))
	s.cont = newContinuousEngine(cfg.World)
	s.contPriv = newContPrivEngine(cfg.World)
	return s, nil
}

// World returns the server's world bounds.
func (s *Server) World() geo.Rect { return s.world }

// --- Public data management ---

// ValidateStationary runs the admission checks LoadStationary applies, in
// input order, without touching any state: duplicate ids, out-of-world
// locations and over-long classes are rejected with the first offending
// object. A class must fit the u16 length prefix the wire and the snapshot
// write it behind. The routing tier calls this before partitioning a bulk
// load across shards, so a bad batch fails with exactly the error a single
// server would report and no shard receives a partial load.
func ValidateStationary(world geo.Rect, objs []PublicObject) error {
	seen := make(map[uint64]struct{}, len(objs))
	for _, o := range objs {
		if _, dup := seen[o.ID]; dup {
			return fmt.Errorf("server: duplicate stationary object id %d", o.ID)
		}
		if !world.Contains(o.Loc) {
			return fmt.Errorf("server: object %d at %v outside world", o.ID, o.Loc)
		}
		if len(o.Class) > codec.MaxStrLen {
			return fmt.Errorf("server: object %d class of %d bytes exceeds %d", o.ID, len(o.Class), codec.MaxStrLen)
		}
		seen[o.ID] = struct{}{}
	}
	return nil
}

// LoadStationary bulk-loads stationary public objects, replacing any
// previously loaded set. It is the only stationary write: stationary
// objects are loaded as a set, never edited one at a time.
func (s *Server) LoadStationary(objs []PublicObject) error {
	if err := ValidateStationary(s.world, objs); err != nil {
		return err
	}
	st := newStationaryStore(slices.Clone(objs))
	s.mu.Lock()
	s.st.Store(st)
	s.met.stationary.Set(float64(st.tree.Len()))
	s.mu.Unlock()
	return nil
}

// StationaryCount returns the number of stationary public objects.
func (s *Server) StationaryCount() int { return s.stationary().tree.Len() }

// stationary returns the current stationary store without taking the
// lock, so it never queues behind a waiting writer. A store is immutable,
// so the caller may read it without the lock.
func (s *Server) stationary() *stationaryStore { return s.st.Load() }

// stationaryStore is the only store of stationary public objects. The
// R-tree's leaf items carry a slot into objs instead of an object ID, and
// cls holds each slot's interned class, so a query's class filter is one
// slice read and resolving a leaf is one index. Slots are in ascending ID
// order, so a canonical sort of a query's answer is a plain sort of its
// slot numbers. A store is never mutated once built: a reader that holds
// one may use it after the server has swapped in another. Its memo
// (memo.go) holds answers computed from it alone.
type stationaryStore struct {
	tree    *rtree.Tree
	objs    []PublicObject
	cls     []uint32
	classes map[string]uint32 // class → interned id
	memo    answerMemo
}

// newStationaryStore builds the store over objs, which it takes over and
// sorts by ID, so that slot order is ID order. LoadStationary and Restore
// both build through it.
func newStationaryStore(objs []PublicObject) *stationaryStore {
	SortObjects(objs)
	st := &stationaryStore{objs: objs, cls: make([]uint32, len(objs)), classes: map[string]uint32{}}
	st.memo.seed = rand.Uint64()
	items := make([]rtree.Item, len(objs))
	for i, o := range objs {
		items[i] = rtree.Item{ID: uint64(i), Loc: o.Loc}
		st.cls[i] = st.intern(o.Class)
	}
	st.tree = rtree.BulkLoad(items)
	return st
}

// intern returns the class's id, assigning the next one to a new class.
func (st *stationaryStore) intern(class string) uint32 {
	c, ok := st.classes[class]
	if !ok {
		c = uint32(len(st.classes))
		st.classes[class] = c
	}
	return c
}

// classID returns the interned id a query class filters on, and whether
// every stored object passes ("" or the only class ever stored). A class
// never stored gets an id no slot holds.
func (st *stationaryStore) classID(class string) (uint32, bool) {
	c, ok := st.classes[class]
	if !ok {
		c = ^uint32(0)
	}
	return c, class == "" || (ok && len(st.classes) == 1)
}

// UpdateMoving upserts a moving public object (e.g. a police car): public
// data carries exact locations by definition.
func (s *Server) UpdateMoving(id uint64, loc geo.Point) error {
	if err := checkMoving(s.world, id, loc); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.met.movingUpdates.Inc()
	old, had := s.moving.Location(id)
	s.moving.Upsert(id, loc)
	s.met.moving.Set(float64(s.moving.Len()))
	s.contPriv.onMovingUpdate(id, old, had, loc)
	return nil
}

// checkMoving is UpdateMoving's admission check.
func checkMoving(world geo.Rect, id uint64, loc geo.Point) error {
	if !world.Contains(loc) {
		return fmt.Errorf("server: moving object %d at %v outside world", id, loc)
	}
	return nil
}

// RemoveMoving deletes a moving public object.
func (s *Server) RemoveMoving(id uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	last, had := s.moving.Location(id)
	if !s.moving.Delete(id) {
		return false
	}
	if had {
		s.contPriv.onMovingRemove(id, last)
	}
	s.met.moving.Set(float64(s.moving.Len()))
	return true
}

// MovingCount returns the number of moving public objects.
func (s *Server) MovingCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.moving.Len()
}

// --- Private data management ---

// UpdatePrivate stores the cloaked region of an anonymized user — the only
// write path for private data, and it accepts regions, never points
// (degenerate rectangles do occur for k=1 profiles, by the user's own
// choice). Continuous queries affected by the change are re-evaluated
// incrementally.
func (s *Server) UpdatePrivate(id uint64, region geo.Rect) error {
	if err := checkPrivate(s.world, id, region); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// The region index is the only store, and the checks above are the
	// ones its Upsert applies, so the write cannot fail once it is reached:
	// a rejected region never touches the index or the continuous engines.
	old, had := s.privIdx.Region(id)
	if err := s.privIdx.Upsert(id, region); err != nil {
		return err
	}
	s.met.privateUpdates.Inc()
	s.met.privateUsers.Set(float64(s.privIdx.Len()))
	s.cont.onPrivateUpdate(id, old, region, had)
	return nil
}

// checkPrivate is UpdatePrivate's admission check.
func checkPrivate(world geo.Rect, id uint64, region geo.Rect) error {
	if !region.Valid() {
		return fmt.Errorf("server: invalid region %v for user %d", region, id)
	}
	if !world.Intersects(region) {
		return fmt.Errorf("server: region %v for user %d outside world", region, id)
	}
	return nil
}

// RemovePrivate deletes a user's cloaked region (deregistration).
func (s *Server) RemovePrivate(id uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	old, ok := s.privIdx.Region(id)
	if !ok {
		return false
	}
	s.met.privateRemovals.Inc()
	s.privIdx.Delete(id)
	s.met.privateUsers.Set(float64(s.privIdx.Len()))
	s.cont.onPrivateRemove(id, old)
	return true
}

// PrivateUserCount returns the number of tracked anonymized users.
func (s *Server) PrivateUserCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.privIdx.Len()
}

// PrivateRegion returns the stored region of one user.
func (s *Server) PrivateRegion(id uint64) (geo.Rect, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.privIdx.Region(id)
}

// privateSnapshot returns the private records sorted by id; callers hold no
// lock. Sorting keeps downstream computations deterministic.
func (s *Server) privateSnapshot() []PrivateRecord {
	s.mu.RLock()
	out := s.privateRecordsLocked()
	s.mu.RUnlock()
	slices.SortFunc(out, cmpRecordID)
	return out
}

// privateRecordsLocked lists the stored regions in the index's slot order.
func (s *Server) privateRecordsLocked() []PrivateRecord {
	ids := s.privIdx.All(make([]uint64, 0, s.privIdx.Len()))
	out := make([]PrivateRecord, len(ids))
	for i, id := range ids {
		r, _ := s.privIdx.Region(id)
		out[i] = PrivateRecord{ID: id, Region: r}
	}
	return out
}

func cmpRecordID(a, b PrivateRecord) int { return cmp.Compare(a.ID, b.ID) }
