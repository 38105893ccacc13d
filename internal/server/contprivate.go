package server

import (
	"fmt"
	"sort"

	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/regidx"
)

// Continuous private range queries monitor moving public objects (police
// cars, delivery trucks) for a cloaked user: "keep me posted on patrol
// cars within r of wherever I am". The server maintains, per query, the
// candidate set over the user's expanded region incrementally as moving
// objects report — the continuous flavor of Figure 5a, executed with the
// shared philosophy of Section 5.3: each moving-object update only touches
// the queries whose filter rectangles it enters or leaves, found through a
// region index of the filters instead of a scan of all standing queries.

// contPrivQuery is one standing private range query over moving objects.
type contPrivQuery struct {
	id     uint64
	region geo.Rect
	radius float64
	filter geo.Rect // region expanded by radius — the candidate predicate
	// members holds the ids of moving objects currently inside filter.
	members map[uint64]geo.Point
}

// contPrivEngine indexes standing queries by filter rectangle so updates
// touch only the queries whose filters hold the object's old or new
// position. Methods run with the server mutex held.
type contPrivEngine struct {
	nextID  uint64
	queries map[uint64]*contPrivQuery
	idx     *regidx.Index // query id → filter
	hits    []uint64      // probe scratch
}

func newContPrivEngine(world geo.Rect) *contPrivEngine {
	return &contPrivEngine{queries: make(map[uint64]*contPrivQuery), idx: newQueryIndex(world)}
}

// newQueryIndex builds the coarse index a continuous engine keeps over its
// standing query rectangles. New has already built a region index over
// the same world, so this one cannot fail.
func newQueryIndex(world geo.Rect) *regidx.Index {
	idx, err := regidx.New(world, 16, 16)
	if err != nil {
		panic(err)
	}
	return idx
}

// add installs (or re-anchors) query id with its candidate set seeded
// from the moving objects. It is the admission of a standing private
// query, registered, moved or restored: an invalid region, a negative
// radius and a filter that cannot be indexed are refused.
func (e *contPrivEngine) add(id uint64, region geo.Rect, radius float64, moving *grid.Index) error {
	if !region.Valid() {
		return fmt.Errorf("server: invalid region %v", region)
	}
	if radius < 0 {
		return fmt.Errorf("server: negative radius %g", radius)
	}
	q := &contPrivQuery{id: id, region: region, radius: radius, filter: region.Expand(radius),
		members: make(map[uint64]geo.Point)}
	if err := e.idx.Upsert(id, q.filter); err != nil {
		return fmt.Errorf("server: continuous private range: %w", err)
	}
	for _, o := range moving.Search(q.filter, nil) {
		q.members[o.ID] = o.Loc
	}
	e.queries[id] = q
	e.nextID = max(e.nextID, id)
	return nil
}

// queriesAt returns the ids of the queries whose filters contain p. The
// slice is scratch, valid until the next probe.
func (e *contPrivEngine) queriesAt(p geo.Point) []uint64 {
	e.hits = e.idx.Query(geo.PointRect(p), e.hits[:0])
	return e.hits
}

// onMovingUpdate reconciles query memberships for one moving object. A
// query holds the object iff its filter contains the object's position,
// so only queries containing the old or the new position can change.
func (e *contPrivEngine) onMovingUpdate(id uint64, old geo.Point, hadOld bool, new geo.Point) {
	if hadOld {
		for _, qid := range e.queriesAt(old) {
			if q := e.queries[qid]; !q.filter.Contains(new) {
				delete(q.members, id)
			}
		}
	}
	for _, qid := range e.queriesAt(new) {
		e.queries[qid].members[id] = new
	}
}

// onMovingRemove drops the object from every query containing its last
// position.
func (e *contPrivEngine) onMovingRemove(id uint64, last geo.Point) {
	for _, qid := range e.queriesAt(last) {
		delete(e.queries[qid].members, id)
	}
}

// RegisterContinuousPrivateRange installs a standing private range query:
// the cloaked user's region plus her radius. The initial candidate set is
// built from the current moving objects; updates maintain it incrementally.
func (s *Server) RegisterContinuousPrivateRange(region geo.Rect, radius float64) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.contPriv.nextID + 1
	if err := s.contPriv.add(id, region, radius, s.moving); err != nil {
		return 0, err
	}
	return id, nil
}

// UnregisterContinuousPrivateRange removes a standing private query.
func (s *Server) UnregisterContinuousPrivateRange(id uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.contPriv.idx.Delete(id) {
		return false
	}
	delete(s.contPriv.queries, id)
	return true
}

// ContinuousPrivateRange reads the maintained candidate set, sorted by id.
// The mobile client refines it against her exact location as usual.
func (s *Server) ContinuousPrivateRange(id uint64) ([]PublicObject, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	q, ok := s.contPriv.queries[id]
	if !ok {
		return nil, false
	}
	out := make([]PublicObject, 0, len(q.members))
	for oid, loc := range q.members {
		out = append(out, PublicObject{ID: oid, Loc: loc})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, true
}

// MoveContinuousPrivateRange re-anchors a standing query when the user's
// cloaked region changes (she moved enough for the anonymizer to emit a
// new region). The candidate set is rebuilt for the new filter.
func (s *Server) MoveContinuousPrivateRange(id uint64, region geo.Rect) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.contPriv.queries[id]
	if !ok {
		return fmt.Errorf("server: unknown continuous private query %d", id)
	}
	return s.contPriv.add(id, region, q.radius, s.moving)
}

// ContinuousPrivateQueryCount returns the number of standing private
// queries.
func (s *Server) ContinuousPrivateQueryCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.contPriv.queries)
}
