package cloak

import (
	"sync"
	"testing"

	"repro/internal/mobility"
	"repro/internal/privacy"
	"repro/internal/rng"
)

// TestIncrementalConcurrentAccess is the regression test for the
// unsynchronized cache map Incremental used to carry: concurrent
// Cloak/Invalidate/CacheSize calls on one shared instance. On the
// pre-guard code this fails under -race (and could fatal with
// "concurrent map read and map write" even without it); with the internal
// mutex it must be silent.
func TestIncrementalConcurrentAccess(t *testing.T) {
	_, pyr, pts := population(t, 2000, mobility.Uniform, 11)
	inc := NewIncremental(&Quadtree{Pyr: pyr}, pyramidCount(pyr))
	req := privacy.Requirement{K: 10}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rng.New(uint64(w + 1))
			for i := 0; i < 500; i++ {
				id := uint64(src.Intn(len(pts))) + 1
				switch src.Intn(10) {
				case 0:
					inc.Invalidate(id)
				case 1:
					_ = inc.CacheSize()
				default:
					res := inc.Cloak(id, pts[id-1], req)
					if !res.Region.Contains(pts[id-1]) {
						t.Errorf("user %d: region misses location", id)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if inc.CacheSize() == 0 {
		t.Error("cache empty after concurrent churn")
	}
}

// TestIncrementalConcurrentDistinctUsers pins the no-bleed property: each
// goroutine owns one user at a fixed location, so every reuse must return
// that user's own region.
func TestIncrementalConcurrentDistinctUsers(t *testing.T) {
	_, pyr, pts := population(t, 1000, mobility.Uniform, 12)
	inc := NewIncremental(&Quadtree{Pyr: pyr}, pyramidCount(pyr))
	req := privacy.Requirement{K: 5}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := uint64(w*97 + 1)
			loc := pts[id-1]
			first := inc.Cloak(id, loc, req)
			for i := 0; i < 300; i++ {
				res := inc.Cloak(id, loc, req)
				if !res.Region.Eq(first.Region) {
					t.Errorf("user %d: region drifted from %v to %v under concurrency",
						id, first.Region, res.Region)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
