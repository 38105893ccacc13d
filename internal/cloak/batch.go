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

// BatchQuadtree performs the Section 5.3 shared execution over the
// space-dependent quadtree cloaker: users that fall into the same bottom
// pyramid cell with the same requirement share one descent. In a typical
// workload the number of distinct (cell, requirement) pairs is far smaller
// than the number of users, so one pass serves everybody.
type BatchQuadtree struct {
	Pyr *pyramid.Pyramid
}

// batchKey identifies a shareable unit of work.
type batchKey struct {
	cell pyramid.Cell
	req  privacy.Requirement
}

// CloakAll cloaks every request, sharing computation between users in the
// same bottom cell with the same requirement. Results are returned in
// request order. SharedHits reports how many requests were served from a
// previously computed descent in this batch.
func (b *BatchQuadtree) CloakAll(reqs []Request) (results []Result, sharedHits int) {
	results = make([]Result, len(reqs))
	memo := make(map[batchKey]Result, len(reqs)/2+1)
	q := &Quadtree{Pyr: b.Pyr}
	bottom := b.Pyr.Height() - 1
	for i, r := range reqs {
		key := batchKey{cell: b.Pyr.CellAt(bottom, r.Loc), req: r.Req}
		if res, ok := memo[key]; ok {
			results[i] = res
			sharedHits++
			continue
		}
		res := q.Cloak(r.ID, r.Loc, r.Req)
		memo[key] = res
		results[i] = res
	}
	return results, sharedHits
}

// CloakAllParallel is CloakAll with the distinct descents fanned out over a
// worker pool. The per-batch shared-descent memo is preserved globally:
// the requests are first grouped by (bottom cell, requirement) in input
// order, then exactly one descent per distinct key runs on the pool, and
// every request is answered from its key's descent. Because a descent is a
// pure read of the pyramid and ignores the requesting user's identity, the
// results — and the shared-hit count, len(reqs) − distinct keys — are
// bit-identical to the sequential CloakAll. The pyramid must not be
// mutated while the call runs (the anonymizer holds its index read lock).
func (b *BatchQuadtree) CloakAllParallel(reqs []Request, workers int) (results []Result, sharedHits int) {
	if workers <= 1 {
		return b.CloakAll(reqs)
	}
	results = make([]Result, len(reqs))
	bottom := b.Pyr.Height() - 1
	index := make(map[batchKey]int, len(reqs)/2+1)
	keyOf := make([]int, len(reqs))
	var firsts []Request // first request of each distinct key, in input order
	for i, r := range reqs {
		key := batchKey{cell: b.Pyr.CellAt(bottom, r.Loc), req: r.Req}
		j, ok := index[key]
		if !ok {
			j = len(firsts)
			index[key] = j
			firsts = append(firsts, r)
		}
		keyOf[i] = j
	}
	shared := make([]Result, len(firsts))
	par.For(len(firsts), workers, func(_, j int) {
		q, r := Quadtree{Pyr: b.Pyr}, firsts[j]
		shared[j] = q.Cloak(r.ID, r.Loc, r.Req)
	})
	for i := range reqs {
		results[i] = shared[keyOf[i]]
	}
	return results, len(reqs) - len(firsts)
}
