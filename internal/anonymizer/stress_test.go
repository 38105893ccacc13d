package anonymizer

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/cloak"
	"repro/internal/geo"
	"repro/internal/privacy"
	"repro/internal/rng"
)

// TestStressShardedInvariants hammers one sharded anonymizer from many
// goroutines — single updates, query cloaks, batches, mode toggles,
// profile churn, registration churn, stats reads — and checks the privacy
// invariants on every result. Each worker owns a disjoint id range, so it
// knows its own users' ground truth (requirement, mode, last cached
// region) without synchronizing with other workers; contention on shards
// and the spatial indices is still real because ids from all workers
// interleave across stripes. Run under -race this is the pipeline's data
// race detector; the invariant checks catch cross-user state bleed that a
// race detector cannot see.
func TestStressShardedInvariants(t *testing.T) {
	const (
		workers   = 8
		perWorker = 40
		opsEach   = 400
	)
	a := newAnon(t, Config{
		Shards:       diffShards(t),
		BatchWorkers: 4,
		Incremental:  true,
	})
	const eps = 1e-12

	var wg, readers sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent readers: stats and population snapshots must never block
	// or tear.
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := a.Stats()
			if st.Queries > st.Queries+st.Updates { // overflow guard, keeps st used
				t.Error("counter overflow")
			}
			_ = a.Population()
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rng.New(uint64(w)*7919 + 1)
			base := uint64(w*perWorker) + 1
			// Ground truth for owned users.
			k := make(map[uint64]int)
			passive := make(map[uint64]bool)
			lastRegion := make(map[uint64]*geo.Rect) // last region cloaked for the user, nil after invalidation
			registered := make(map[uint64]bool)
			for i := 0; i < perWorker; i++ {
				id := base + uint64(i)
				kk := 1 + src.Intn(20)
				if err := a.Register(id, privacy.Constant(privacy.Requirement{K: kk})); err != nil {
					t.Errorf("register %d: %v", id, err)
					return
				}
				k[id] = kk
				registered[id] = true
			}
			pick := func() uint64 { return base + uint64(src.Intn(perWorker)) }
			check := func(id uint64, loc geo.Point, res cloak.Result) bool {
				if !res.Region.Contains(loc) {
					t.Errorf("user %d: region %v misses location %v", id, res.Region, loc)
					return false
				}
				if !world.ContainsRect(res.Region) {
					t.Errorf("user %d: region %v leaves the world", id, res.Region)
					return false
				}
				if res.SatisfiedK && res.K < k[id] {
					t.Errorf("user %d: SatisfiedK with K=%d < required %d", id, res.K, k[id])
					return false
				}
				if res.Region.Area() < -eps {
					t.Errorf("user %d: negative area %v", id, res.Region.Area())
					return false
				}
				if res.Reused {
					// A reused region must be this user's own cached region —
					// anything else is cross-user (or cross-shard) cache bleed.
					prev := lastRegion[id]
					if prev == nil {
						t.Errorf("user %d: reuse with no cached region", id)
						return false
					}
					if !res.Region.Eq(*prev) {
						t.Errorf("user %d: reused foreign region %v (own cache %v)", id, res.Region, *prev)
						return false
					}
				}
				return true
			}
			for op := 0; op < opsEach; op++ {
				id := pick()
				loc := geo.Pt(src.Float64(), src.Float64())
				switch c := src.Intn(100); {
				case c < 45: // single update
					res, err := a.Update(id, loc)
					switch {
					case err == nil:
						if !registered[id] || passive[id] {
							t.Errorf("user %d: update succeeded while %v", id,
								map[bool]string{true: "passive", false: "deregistered"}[passive[id]])
							return
						}
						if !check(id, loc, res) {
							return
						}
						r := res.Region
						lastRegion[id] = &r
					case errors.Is(err, ErrPassive):
						if !passive[id] {
							t.Errorf("user %d: spurious ErrPassive", id)
							return
						}
					case errors.Is(err, ErrUnknownUser):
						if registered[id] {
							t.Errorf("user %d: spurious ErrUnknownUser", id)
							return
						}
					default:
						t.Errorf("user %d: update: %v", id, err)
						return
					}
				case c < 60: // query cloak: same invariants
					res, err := a.CloakQuery(id, loc)
					if err == nil {
						if !check(id, loc, res) {
							return
						}
						r := res.Region
						lastRegion[id] = &r
					}
				case c < 80: // batch over a random slice of owned users
					n := 1 + src.Intn(perWorker)
					reqs := make([]cloak.Request, 0, n)
					for j := 0; j < n; j++ {
						bid := pick()
						bloc := geo.Pt(src.Float64(), src.Float64())
						reqs = append(reqs, cloak.Request{ID: bid, Loc: bloc})
					}
					// The cache learns each user's last region in the
					// batch (later entry wins, like the pipeline), after
					// every entry is checked against the cache before it.
					batchRegion := make(map[uint64]*geo.Rect, n)
					for i, res := range a.BatchUpdate(reqs) {
						bid := reqs[i].ID
						if res == nil {
							if registered[bid] && !passive[bid] {
								t.Errorf("user %d: batch entry rejected while active", bid)
								return
							}
							continue
						}
						if !check(bid, reqs[i].Loc, *res) {
							return
						}
						r := res.Region
						batchRegion[bid] = &r
					}
					for bid, r := range batchRegion {
						lastRegion[bid] = r
					}
				case c < 88: // mode toggle
					want := !passive[id]
					m := privacy.Active
					if want {
						m = privacy.Passive
					}
					if err := a.SetMode(id, m); err == nil {
						passive[id] = want
						if want {
							lastRegion[id] = nil // dropLocation invalidated the cache
						}
					} else if registered[id] {
						t.Errorf("user %d: SetMode: %v", id, err)
						return
					}
				case c < 94: // profile churn
					nk := 1 + src.Intn(20)
					if err := a.UpdateProfile(id, privacy.Constant(privacy.Requirement{K: nk})); err == nil {
						k[id] = nk
						lastRegion[id] = nil
					} else if registered[id] {
						t.Errorf("user %d: UpdateProfile: %v", id, err)
						return
					}
				default: // registration churn
					if registered[id] {
						a.Deregister(id)
						registered[id] = false
						passive[id] = false
						lastRegion[id] = nil
					} else {
						nk := 1 + src.Intn(20)
						if err := a.Register(id, privacy.Constant(privacy.Requirement{K: nk})); err != nil {
							t.Errorf("user %d: re-register: %v", id, err)
							return
						}
						registered[id] = true
						k[id] = nk
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	st := a.Stats()
	if st.Updates == 0 || st.Batches == 0 {
		t.Errorf("stress run exercised nothing: %+v", st)
	}
}
