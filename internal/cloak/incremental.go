package cloak

import (
	"sync"

	"repro/internal/geo"
	"repro/internal/privacy"
)

// Validator re-checks whether a previously issued region still satisfies a
// requirement against the current population — the cheap test that makes
// incremental evaluation sound. Space-dependent cloakers validate against
// pyramid counts; data-dependent ones against the population index.
type Validator func(region geo.Rect, req privacy.Requirement) (count int, ok bool)

// Incremental wraps any Cloaker with the Section 5.3 incremental
// evaluation: the cloaked region computed at time t−1 is reused at time t
// whenever (a) the user is still inside it and (b) it still satisfies her
// requirement. Only when either check fails is the inner cloaker invoked,
// and a recomputed region equal to the cached one is reported reused too.
//
// Reuse has a privacy side benefit the paper does not mention but the
// experiments report: a stable region across updates leaks less movement
// information than a region recentered on every update.
//
// Unlike the plain cloakers, Incremental is safe for concurrent use: the
// region cache is guarded internally, so shard workers of a parallel
// anonymizer may share one instance. Inner and Validate must themselves be
// safe to call concurrently (the built-in cloakers are read-only over
// their indices, so they are, as long as no index writer runs at the same
// time — the anonymizer's reader/writer lock enforces that).
type Incremental struct {
	Inner Cloaker
	// Validate re-checks a cached region; it is required.
	Validate Validator
	// MaxSlack, when positive, forces a recompute whenever the cached
	// region's current population exceeds MaxSlack×k. Without it a region
	// computed under a sparse population (e.g. the whole world during
	// startup) would stay valid forever and quality of service would never
	// recover; with it the region re-tightens once the population allows.
	MaxSlack int

	mu    sync.Mutex
	cache map[uint64]cached
}

type cached struct {
	region geo.Rect
	req    privacy.Requirement
}

// NewIncremental builds the wrapper.
func NewIncremental(inner Cloaker, validate Validator) *Incremental {
	return &Incremental{Inner: inner, Validate: validate, cache: make(map[uint64]cached)}
}

// Name implements Cloaker.
func (c *Incremental) Name() string { return c.Inner.Name() + "+inc" }

// Cloak implements Cloaker.
func (c *Incremental) Cloak(id uint64, loc geo.Point, req privacy.Requirement) Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	prev, ok := c.cache[id]
	if ok && prev.req == req && prev.region.Contains(loc) {
		if count, valid := c.Validate(prev.region, req); valid {
			if c.MaxSlack <= 0 || count <= c.MaxSlack*req.K {
				r := finish(prev.region, count, req)
				r.Reused = true
				return r
			}
			// Over-slack: fall through to recompute a tighter region.
		}
	}
	res := c.Inner.Cloak(id, loc, req)
	// A recompute that lands on the cached region changes nothing
	// downstream: the cache entry is the region the database holds.
	res.Reused = c.record(id, res.Region, req)
	return res
}

// Record caches region for id under req, as a recompute in Cloak does,
// and reports whether it equals the region cached before. It serves a
// caller that cloaked past the cache (the anonymizer's batch pipeline):
// an unchanged region is one the database already holds.
func (c *Incremental) Record(id uint64, region geo.Rect, req privacy.Requirement) (unchanged bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.record(id, region, req)
}

// record is Record with c.mu held.
func (c *Incremental) record(id uint64, region geo.Rect, req privacy.Requirement) bool {
	prev, ok := c.cache[id]
	c.cache[id] = cached{region: region, req: req}
	return ok && prev.region == region
}

// Cached returns the region cached for id, if any.
func (c *Incremental) Cached(id uint64) (geo.Rect, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.cache[id]
	return e.region, ok
}

// Invalidate drops the cached region of one user (e.g. on deregistration).
func (c *Incremental) Invalidate(id uint64) {
	c.mu.Lock()
	delete(c.cache, id)
	c.mu.Unlock()
}

// CacheSize returns the number of cached regions.
func (c *Incremental) CacheSize() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cache)
}
