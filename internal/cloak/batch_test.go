package cloak

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/privacy"
	"repro/internal/pyramid"
	"repro/internal/rng"
)

// buildBatch generates a request mix with heavy key sharing: clusters of
// users at identical points with a small set of requirements.
func buildBatch(t testing.TB, n int, seed uint64) (*pyramid.Pyramid, []Request) {
	t.Helper()
	_, pyr, pts := population(t, n, mobility.Uniform, seed)
	src := rng.New(seed ^ 0xBA7C4)
	ks := []int{1, 5, 25}
	reqs := make([]Request, 0, 2*n)
	for i, p := range pts {
		reqs = append(reqs, Request{
			ID: uint64(i + 1), Loc: p,
			Req: privacy.Requirement{K: ks[i%len(ks)]},
		})
	}
	// Duplicate locations: several users at one point with one requirement.
	for c := 0; c < n/10; c++ {
		p := geo.Pt(src.Float64(), src.Float64())
		req := privacy.Requirement{K: ks[src.Intn(len(ks))]}
		for m := 0; m < 4; m++ {
			reqs = append(reqs, Request{ID: uint64(src.Intn(n)) + 1, Loc: p, Req: req})
		}
	}
	return pyr, reqs
}

// distinctKeys counts the (bottom cell, requirement) keys of reqs.
func distinctKeys(pyr *pyramid.Pyramid, reqs []Request) int {
	keys := make(map[batchKey]bool)
	for _, r := range reqs {
		keys[batchKey{cell: pyr.CellAt(pyr.Height()-1, r.Loc), req: r.Req}] = true
	}
	return len(keys)
}

// batchCloakers are the space-dependent cloakers that Batch shares.
func batchCloakers(pyr *pyramid.Pyramid) []Cloaker {
	return []Cloaker{
		&Quadtree{Pyr: pyr},
		&Grid{Pyr: pyr, Level: 4},
		&Grid{Pyr: pyr, Level: 4, MultiLevel: true},
	}
}

// parallelWorkers are the worker counts swept against the inline path.
var parallelWorkers = []int{2, 4, 8, 64}

// TestBatchMatchesIndividual: for every space-dependent cloaker, the
// inline CloakAll answers each request exactly as Inner.Cloak does for it
// alone, and reports len(reqs) − distinct keys shared hits.
func TestBatchMatchesIndividual(t *testing.T) {
	pyr, reqs := buildBatch(t, 1000, 21)
	if distinctKeys(pyr, reqs) == len(reqs) {
		t.Fatal("workload has no shared keys; the test is vacuous")
	}
	for _, inner := range batchCloakers(pyr) {
		results, hits := (&Batch{Pyr: pyr, Inner: inner}).CloakAll(reqs, 1)
		if want := len(reqs) - distinctKeys(pyr, reqs); hits != want {
			t.Errorf("%s: %d shared hits, want %d", inner.Name(), hits, want)
		}
		if len(results) != len(reqs) {
			t.Fatalf("%s: %d results for %d requests", inner.Name(), len(results), len(reqs))
		}
		for i, r := range reqs {
			if want := inner.Cloak(r.ID, r.Loc, r.Req); results[i] != want {
				t.Fatalf("%s: result %d diverges:\n  batch: %+v\n  alone: %+v",
					inner.Name(), i, results[i], want)
			}
		}
	}
}

// TestCloakAllParallelMatchesSequential: the fanned-out batch must be
// bit-identical to the inline one — results and shared-hit count alike,
// for every cloaker and worker count.
func TestCloakAllParallelMatchesSequential(t *testing.T) {
	pyr, reqs := buildBatch(t, 1000, 21)
	for _, inner := range batchCloakers(pyr) {
		b := &Batch{Pyr: pyr, Inner: inner}
		seqRes, seqHits := b.CloakAll(reqs, 1)
		if seqHits == 0 {
			t.Fatalf("%s: workload has no shared keys; the test is vacuous", inner.Name())
		}
		for _, workers := range parallelWorkers {
			parRes, parHits := b.CloakAll(reqs, workers)
			if parHits != seqHits {
				t.Errorf("%s, workers=%d: shared hits %d != sequential %d",
					inner.Name(), workers, parHits, seqHits)
			}
			if len(parRes) != len(seqRes) {
				t.Fatalf("%s, workers=%d: length %d != %d",
					inner.Name(), workers, len(parRes), len(seqRes))
			}
			for i := range seqRes {
				if parRes[i] != seqRes[i] {
					t.Fatalf("%s, workers=%d: result %d diverges:\n  seq: %+v\n  par: %+v",
						inner.Name(), workers, i, seqRes[i], parRes[i])
				}
			}
		}
	}
}

// TestCloakAllParallelEmptyAndTiny covers the degenerate shapes at every
// worker count: an empty batch, and a single request (fewer requests than
// workers), which is answered as the cloaker alone answers it.
func TestCloakAllParallelEmptyAndTiny(t *testing.T) {
	pyr, reqs := buildBatch(t, 100, 22)
	one := reqs[:1]
	for _, inner := range batchCloakers(pyr) {
		b := &Batch{Pyr: pyr, Inner: inner}
		want := inner.Cloak(one[0].ID, one[0].Loc, one[0].Req)
		for _, workers := range append([]int{1}, parallelWorkers...) {
			if res, hits := b.CloakAll(nil, workers); len(res) != 0 || hits != 0 {
				t.Errorf("%s, workers=%d: empty batch: %v, %d", inner.Name(), workers, res, hits)
			}
			res, hits := b.CloakAll(one, workers)
			if hits != 0 || len(res) != 1 || res[0] != want {
				t.Errorf("%s, workers=%d: single request: %+v, want %+v (hits %d)",
					inner.Name(), workers, res, want, hits)
			}
		}
	}
}
