package cloak

import (
	"repro/internal/geo"
	"repro/internal/par"
	"repro/internal/privacy"
	"repro/internal/pyramid"
)

// Request is one user's cloaking request in a batch.
type Request struct {
	ID  uint64
	Loc geo.Point
	Req privacy.Requirement
}

// Batch performs the Section 5.3 shared execution over a space-dependent
// cloaker: users that fall into the same bottom pyramid cell with the same
// requirement share one Inner.Cloak. Inner's result must depend on the
// location only through the cells of Pyr that contain it (Quadtree's and
// Grid's do), so it is a function of (bottom cell, requirement) alone and
// sharing is exact. In a typical workload the number of distinct (cell, requirement)
// pairs is far smaller than the number of users, so one pass serves
// everybody.
type Batch struct {
	Pyr   *pyramid.Pyramid
	Inner Cloaker
}

// batchKey identifies a shareable unit of work.
type batchKey struct {
	cell pyramid.Cell
	req  privacy.Requirement
}

// CloakAll cloaks every request and returns the results in request order.
// The requests are grouped by (bottom cell, requirement) in input order and
// one Inner.Cloak runs per distinct key, inline when workers ≤ 1 and on a
// pool of that many otherwise; every request is answered from its key's
// result. sharedHits, len(reqs) − distinct keys, counts the requests served
// from another's computation. Results and sharedHits are the same for
// every worker count. The pyramid must not be mutated while the call runs
// (the anonymizer holds its index read lock).
func (b *Batch) CloakAll(reqs []Request, workers int) (results []Result, sharedHits int) {
	results = make([]Result, len(reqs))
	bottom := b.Pyr.Height() - 1
	first := make(map[batchKey]int, len(reqs)) // key → its first request
	firstOf := make([]int, len(reqs))
	firsts := make([]int, 0, len(reqs)) // the first request of every key
	for i, r := range reqs {
		key := batchKey{cell: b.Pyr.CellAt(bottom, r.Loc), req: r.Req}
		f, ok := first[key]
		if !ok {
			f = i
			first[key] = i
			firsts = append(firsts, i)
		}
		firstOf[i] = f
	}
	b.cloakFirsts(reqs, firsts, results, workers)
	for i, f := range firstOf {
		results[i] = results[f]
	}
	return results, len(reqs) - len(firsts)
}

// cloakFirsts fills results[i] for every i in firsts: inline at one worker,
// where it allocates nothing, and on the pool otherwise. It is a function
// of its own so that the pool's closure, which escapes to the workers,
// captures this frame's copies of the slices, not CloakAll's results.
func (b *Batch) cloakFirsts(reqs []Request, firsts []int, results []Result, workers int) {
	if workers <= 1 {
		for _, i := range firsts {
			r := reqs[i]
			results[i] = b.Inner.Cloak(r.ID, r.Loc, r.Req)
		}
		return
	}
	par.For(len(firsts), workers, func(_, j int) {
		i := firsts[j]
		r := reqs[i]
		results[i] = b.Inner.Cloak(r.ID, r.Loc, r.Req)
	})
}
