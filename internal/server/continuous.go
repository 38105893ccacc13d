package server

import (
	"fmt"
	"sort"

	"repro/internal/geo"
	"repro/internal/prob"
	"repro/internal/regidx"
)

// ContinuousCountAnswer is the incrementally maintained state of one
// continuous count query: the expected value and interval are updated in
// O(1) per affected location update; the full PDF is derived on demand.
type ContinuousCountAnswer struct {
	Expected float64
	Lo, Hi   int
}

// continuousEngine implements the Section 5.3 shared, incremental
// evaluation for continuous public count queries over private data.
// Instead of re-running every query on every location update, the engine
// keeps, per query, each contributing user's inclusion probability; an
// update touches only the queries whose rectangles intersect the user's
// old or new region, found through a region index of the rectangles, and
// each of those is adjusted by the probability delta in O(1).
//
// The engine's methods are called with the server mutex held.
type continuousEngine struct {
	nextID  uint64
	queries map[uint64]*contQuery
	idx     *regidx.Index // query id → rectangle
	hits    []uint64      // probe scratch
}

type contQuery struct {
	id    uint64
	query geo.Rect
	// probs holds the current nonzero inclusion probability of each user.
	probs    map[uint64]float64
	expected float64
	lo, hi   int
}

func newContinuousEngine(world geo.Rect) *continuousEngine {
	return &continuousEngine{queries: make(map[uint64]*contQuery), idx: newQueryIndex(world)}
}

// RegisterContinuousCount installs a continuous count query over the given
// rectangle and returns its handle. The initial answer is computed from the
// current private data.
func (s *Server) RegisterContinuousCount(query geo.Rect) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.cont.nextID + 1
	if err := s.cont.add(id, query, s.privIdx); err != nil {
		return 0, err
	}
	s.met.contQueries.Set(float64(len(s.cont.queries)))
	return id, nil
}

// add installs a continuous query seeded from the users' region index
// (its probe is a superset of the users with positive overlap). It is the
// admission of a standing count query, registered or restored: an invalid
// rectangle is refused.
func (e *continuousEngine) add(id uint64, query geo.Rect, users *regidx.Index) error {
	if !query.Valid() {
		return fmt.Errorf("server: invalid continuous query %v", query)
	}
	if err := e.idx.Upsert(id, query); err != nil {
		return err
	}
	cq := &contQuery{id: id, query: query, probs: make(map[uint64]float64)}
	for _, h := range users.QueryHits(query, nil) {
		if p := prob.Overlap(h.Region, query); p > 0 {
			cq.apply(h.ID, 0, p)
		}
	}
	e.queries[id] = cq
	e.nextID = max(e.nextID, id)
	return nil
}

// UnregisterContinuousCount removes a continuous query.
func (s *Server) UnregisterContinuousCount(id uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.cont.idx.Delete(id) {
		return false
	}
	delete(s.cont.queries, id)
	s.met.contQueries.Set(float64(len(s.cont.queries)))
	return true
}

// ContinuousCount reads the current incrementally-maintained answer.
func (s *Server) ContinuousCount(id uint64) (ContinuousCountAnswer, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cq, ok := s.cont.queries[id]
	if !ok {
		return ContinuousCountAnswer{}, false
	}
	s.met.continuousReads.Inc()
	return ContinuousCountAnswer{Expected: cq.expected, Lo: cq.lo, Hi: cq.hi}, true
}

// ContinuousCountPDF materializes the full PDF of a continuous query from
// its maintained per-user probabilities.
func (s *Server) ContinuousCountPDF(id uint64) (prob.CountAnswer, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cq, ok := s.cont.queries[id]
	if !ok {
		return prob.CountAnswer{}, false
	}
	probs := make([]float64, 0, len(cq.probs))
	for _, p := range cq.probs {
		probs = append(probs, p)
	}
	// Sort for determinism, matching PublicRangeCount: map iteration order
	// must not influence the PDF's floating-point accumulation, so the
	// materialized PDF bit-equals the one-shot answer over the same data.
	sort.Float64s(probs)
	return prob.RangeCount(probs), true
}

// ContinuousQueryCount returns the number of registered continuous queries.
func (s *Server) ContinuousQueryCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.cont.queries)
}

// apply moves user uid's inclusion probability from old to new, adjusting
// the aggregates in O(1).
func (cq *contQuery) apply(uid uint64, old, new float64) {
	if old == new {
		return
	}
	cq.expected += new - old
	if old == 1 {
		cq.lo--
	}
	if new == 1 {
		cq.lo++
	}
	if old > 0 && new == 0 {
		cq.hi--
		delete(cq.probs, uid)
	}
	if old == 0 && new > 0 {
		cq.hi++
	}
	if new > 0 {
		cq.probs[uid] = new
	}
	// Guard against floating-point drift pulling Expected negative.
	if cq.expected < 0 && cq.expected > -1e-9 {
		cq.expected = 0
	}
}

// onPrivateUpdate is called (mutex held) when a user's region changes. A
// region has positive overlap only with queries it intersects, so queries
// that meet neither the old nor the new region — outside their MBR — see
// no change.
func (e *continuousEngine) onPrivateUpdate(uid uint64, old, new geo.Rect, had bool) {
	probe := new
	if had {
		probe = old.Union(new)
	}
	e.hits = e.idx.Query(probe, e.hits[:0])
	for _, qid := range e.hits {
		cq := e.queries[qid]
		var po float64
		if had {
			po = prob.Overlap(old, cq.query)
		}
		cq.apply(uid, po, prob.Overlap(new, cq.query))
	}
}

// onPrivateRemove is called (mutex held) when a user deregisters.
func (e *continuousEngine) onPrivateRemove(uid uint64, old geo.Rect) {
	e.hits = e.idx.Query(old, e.hits[:0])
	for _, qid := range e.hits {
		cq := e.queries[qid]
		if po := prob.Overlap(old, cq.query); po > 0 {
			cq.apply(uid, po, 0)
		}
	}
}
