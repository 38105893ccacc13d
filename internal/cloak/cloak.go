// Package cloak implements the location anonymization algorithms of
// Section 5 of the paper: the data-dependent family (naive symmetric
// expansion and MBR-of-k-neighbors, Figure 3) and the space-dependent
// family (top-down quadtree descent and fixed/multi-level grid merging,
// Figure 4), plus the Section 5.3 scalability machinery — incremental
// cloak maintenance and shared (batch) execution.
//
// Every algorithm is best effort, mirroring the paper: the k-anonymity
// requirement is treated as the hard minimum, then the minimum area Amin,
// then the maximum area Amax. A Result records exactly which constraints
// were met so experiments can quantify the trade-offs.
//
// Throughout the package, a cloaked region "contains k users" counts the
// requesting user herself (she is part of the anonymity set).
package cloak

import (
	"fmt"

	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/privacy"
)

// Result is the outcome of cloaking one location update.
type Result struct {
	// Region is the cloaked spatial region forwarded to the database server.
	Region geo.Rect
	// K is the number of users (including the requester) inside Region at
	// cloak time — the anonymity actually achieved.
	K int
	// SatisfiedK, SatisfiedMinArea and SatisfiedMaxArea record which profile
	// constraints the region meets.
	SatisfiedK       bool
	SatisfiedMinArea bool
	SatisfiedMaxArea bool
	// Reused is set by the incremental cloaker when it returns the previous
	// region: still valid, or recomputed to the same rectangle.
	Reused bool
}

// BestEffort reports whether any constraint was missed.
func (r Result) BestEffort() bool {
	return !r.SatisfiedK || !r.SatisfiedMinArea || !r.SatisfiedMaxArea
}

// String implements fmt.Stringer.
func (r Result) String() string {
	return fmt.Sprintf("region=%v k=%d (k:%t minA:%t maxA:%t reused:%t)",
		r.Region, r.K, r.SatisfiedK, r.SatisfiedMinArea, r.SatisfiedMaxArea, r.Reused)
}

// finish fills the satisfaction flags from the achieved region and count.
func finish(region geo.Rect, count int, req privacy.Requirement) Result {
	return Result{
		Region:           region,
		K:                count,
		SatisfiedK:       count >= req.K,
		SatisfiedMinArea: region.Area() >= req.MinArea,
		SatisfiedMaxArea: region.Area() <= req.EffectiveMaxArea(),
	}
}

// Cloaker turns an exact location into a cloaked region under a privacy
// requirement. The built-in cloakers only read their index, so any number
// of Cloak calls may run concurrently while no writer mutates it: the
// anonymizer's single and batch paths both cloak concurrently under its
// index read lock.
type Cloaker interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// Cloak blurs the location of the identified user. The user is assumed
	// to be part of the tracked population (her own presence counts toward
	// k); algorithms that look the user up fall back gracefully when she is
	// not yet indexed.
	Cloak(id uint64, loc geo.Point, req privacy.Requirement) Result
}

// Population is the user-location knowledge available to data-dependent
// cloaking: counting users inside a rectangle and finding the k users
// nearest to a point. The anonymizer's grid index implements it.
type Population interface {
	// CountIn returns the number of users inside r.
	CountIn(r geo.Rect) int
	// KNearest returns the locations of the k users nearest to p
	// (fewer when the population is smaller).
	KNearest(p geo.Point, k int) []geo.Point
	// Len returns the population size.
	Len() int
	// World returns the space all users live in.
	World() geo.Rect
}

// GridPopulation adapts a grid.Index to the Population interface.
type GridPopulation struct {
	Index *grid.Index
}

// CountIn implements Population.
func (g GridPopulation) CountIn(r geo.Rect) int { return g.Index.Count(r) }

// KNearest implements Population.
func (g GridPopulation) KNearest(p geo.Point, k int) []geo.Point {
	objs := g.Index.Nearest(p, k)
	out := make([]geo.Point, len(objs))
	for i, o := range objs {
		out[i] = o.Loc
	}
	return out
}

// Len implements Population.
func (g GridPopulation) Len() int { return g.Index.Len() }

// World implements Population.
func (g GridPopulation) World() geo.Rect { return g.Index.World() }
