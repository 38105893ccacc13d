package anonymizer

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cloak"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/privacy"
	"repro/internal/rng"
)

var world = geo.R(0, 0, 1, 1)

// fixedClock returns a Clock pinned to the given hour of day.
func fixedClock(hour int) func() time.Time {
	return func() time.Time {
		return time.Date(2026, 7, 4, hour, 0, 0, 0, time.UTC)
	}
}

func newAnon(t testing.TB, cfg Config) *Anonymizer {
	t.Helper()
	if !cfg.World.Valid() || cfg.World.Area() == 0 {
		cfg.World = world
	}
	if cfg.Clock == nil {
		cfg.Clock = fixedClock(12)
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// seedUsers registers and updates n users so the population indices are
// warm, using a constant-k profile.
func seedUsers(t testing.TB, a *Anonymizer, n int, k int, seed uint64) []geo.Point {
	t.Helper()
	pts, err := mobility.GeneratePoints(mobility.PopulationSpec{
		N: n, World: world, Dist: mobility.Uniform, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	prof := privacy.Constant(privacy.Requirement{K: k})
	for i, p := range pts {
		id := uint64(i + 1)
		if err := a.Register(id, prof); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Update(id, p); err != nil {
			t.Fatal(err)
		}
	}
	return pts
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(Config{World: world, Algorithm: Algorithm(99)}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// TestAlgorithmStrings: every algorithm round-trips through its name, and
// no other name parses.
func TestAlgorithmStrings(t *testing.T) {
	for _, alg := range []Algorithm{AlgQuadtree, AlgGrid, AlgGridML} {
		if got, err := ParseAlgorithm(alg.String()); err != nil || got != alg {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", alg.String(), got, err)
		}
		a := newAnon(t, Config{Algorithm: alg})
		if a.Algorithm() != alg {
			t.Errorf("Algorithm() = %v, want %v", a.Algorithm(), alg)
		}
	}
	for _, name := range []string{"naive", "mbr", "", "Quadtree", "algorithm(3)"} {
		if alg, err := ParseAlgorithm(name); err == nil {
			t.Errorf("ParseAlgorithm(%q) = %v, want an error", name, alg)
		}
	}
	if s := Algorithm(42).String(); s != "algorithm(42)" {
		t.Errorf("Algorithm(42).String() = %q", s)
	}
}

func TestRegistrationLifecycle(t *testing.T) {
	a := newAnon(t, Config{})
	prof := privacy.Constant(privacy.Requirement{K: 5})
	if err := a.Register(1, prof); err != nil {
		t.Fatal(err)
	}
	if err := a.Register(1, prof); !errors.Is(err, ErrDuplicateUser) {
		t.Errorf("duplicate register = %v", err)
	}
	if err := a.Register(2, nil); err == nil {
		t.Error("nil profile accepted")
	}
	if m, err := a.Mode(1); err != nil || m != privacy.Active {
		t.Errorf("initial mode = %v, %v", m, err)
	}
	if !a.Deregister(1) || a.Deregister(1) {
		t.Error("deregister misbehaved")
	}
	if _, err := a.Mode(1); !errors.Is(err, ErrUnknownUser) {
		t.Error("mode of deregistered user")
	}
}

func TestUpdateUnknownAndInvalid(t *testing.T) {
	a := newAnon(t, Config{})
	if _, err := a.Update(99, geo.Pt(0.5, 0.5)); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("unknown user update = %v", err)
	}
	a.Register(1, privacy.Constant(privacy.Requirement{K: 1}))
	if _, err := a.Update(1, geo.Pt(5, 5)); err == nil {
		t.Error("out-of-world location accepted")
	}
	if _, err := a.Update(1, geo.Pt(math.NaN(), 0)); err == nil {
		t.Error("NaN location accepted")
	}
}

func TestUpdateCloaksAndForwards(t *testing.T) {
	var mu sync.Mutex
	forwarded := map[uint64]geo.Rect{}
	a := newAnon(t, Config{
		Forward: func(id uint64, region geo.Rect) error {
			mu.Lock()
			forwarded[id] = region
			mu.Unlock()
			return nil
		},
	})
	pts := seedUsers(t, a, 500, 10, 1)
	mu.Lock()
	defer mu.Unlock()
	if len(forwarded) != 500 {
		t.Fatalf("forwarded %d regions", len(forwarded))
	}
	for i, p := range pts {
		region := forwarded[uint64(i+1)]
		if !region.Contains(p) {
			t.Fatalf("forwarded region %v misses user %d at %v", region, i+1, p)
		}
	}
	st := a.Stats()
	if st.Updates != 500 || st.Forwarded != 500 || st.Registered != 500 {
		t.Errorf("stats = %+v", st)
	}
}

func TestForwardErrorSurfaces(t *testing.T) {
	boom := errors.New("downstream down")
	a := newAnon(t, Config{
		Forward: func(uint64, geo.Rect) error { return boom },
	})
	a.Register(1, privacy.Constant(privacy.Requirement{K: 1}))
	if _, err := a.Update(1, geo.Pt(0.5, 0.5)); !errors.Is(err, boom) {
		t.Errorf("forward error not surfaced: %v", err)
	}
	if a.Stats().ForwardErrs != 1 {
		t.Error("ForwardErrs not counted")
	}
}

func TestPassiveMode(t *testing.T) {
	a := newAnon(t, Config{})
	a.Register(1, privacy.Constant(privacy.Requirement{K: 2}))
	a.Update(1, geo.Pt(0.5, 0.5))
	if a.Population() != 1 {
		t.Fatal("population after update")
	}
	if err := a.SetMode(1, privacy.Passive); err != nil {
		t.Fatal(err)
	}
	// Passive users are dropped from the indices entirely.
	if a.Population() != 0 {
		t.Error("passive user still tracked")
	}
	if _, err := a.Update(1, geo.Pt(0.6, 0.6)); !errors.Is(err, ErrPassive) {
		t.Errorf("passive update = %v", err)
	}
	if err := a.SetMode(99, privacy.Active); !errors.Is(err, ErrUnknownUser) {
		t.Error("SetMode unknown user")
	}
	// Reactivate.
	a.SetMode(1, privacy.Active)
	if _, err := a.Update(1, geo.Pt(0.6, 0.6)); err != nil {
		t.Errorf("reactivated update failed: %v", err)
	}
}

func TestProfileGapMeansPassive(t *testing.T) {
	// Profile only covers 8:00-10:00; at noon the user is passive.
	prof := privacy.MustProfile(privacy.Entry{From: 8 * 60, To: 10 * 60, Req: privacy.Requirement{K: 5}})
	a := newAnon(t, Config{Clock: fixedClock(12)})
	a.Register(1, prof)
	if _, err := a.Update(1, geo.Pt(0.5, 0.5)); !errors.Is(err, ErrPassive) {
		t.Errorf("gap-time update = %v", err)
	}
}

// The Figure 2 behavior: the same user gets radically different regions at
// different times of day.
func TestTemporalProfileChangesCloaking(t *testing.T) {
	clockHour := 12
	a := newAnon(t, Config{
		Clock: func() time.Time {
			return time.Date(2026, 7, 4, clockHour, 0, 0, 0, time.UTC)
		},
	})
	// Population so k can be met.
	bg := privacy.Constant(privacy.Requirement{K: 1})
	pts, _ := mobility.GeneratePoints(mobility.PopulationSpec{
		N: 2000, World: world, Dist: mobility.Uniform, Seed: 3,
	})
	for i, p := range pts {
		a.Register(uint64(i+10), bg)
		a.Update(uint64(i+10), p)
	}
	// The profiled user: paper example scaled into the unit world.
	prof := privacy.MustProfile(
		privacy.Entry{From: 8 * 60, To: 17 * 60, Req: privacy.Requirement{K: 1}},
		privacy.Entry{From: 17 * 60, To: 22 * 60, Req: privacy.Requirement{K: 100}},
		privacy.Entry{From: 22 * 60, To: 8 * 60, Req: privacy.Requirement{K: 1000}},
	)
	a.Register(1, prof)
	loc := geo.Pt(0.41, 0.37)

	clockHour = 12 // daytime: k=1, exact point acceptable
	day, err := a.Update(1, loc)
	if err != nil {
		t.Fatal(err)
	}
	clockHour = 20 // evening: k=100
	evening, err := a.Update(1, loc)
	if err != nil {
		t.Fatal(err)
	}
	clockHour = 23 // night: k=1000
	night, err := a.Update(1, loc)
	if err != nil {
		t.Fatal(err)
	}
	if !(day.Region.Area() < evening.Region.Area() && evening.Region.Area() < night.Region.Area()) {
		t.Errorf("areas should grow with k: day=%v evening=%v night=%v",
			day.Region.Area(), evening.Region.Area(), night.Region.Area())
	}
	if !evening.SatisfiedK || !night.SatisfiedK {
		t.Error("k not satisfied in evening/night regimes")
	}
}

func TestUpdateProfileInvalidatesCache(t *testing.T) {
	a := newAnon(t, Config{Incremental: true})
	seedUsers(t, a, 500, 5, 4)
	// Second update in place: reused.
	res, err := a.Update(1, geo.Pt(0.1, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	loc := geo.Pt(0.1, 0.1)
	res, err = a.Update(1, loc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reused {
		t.Fatal("expected reuse")
	}
	// Profile change must invalidate.
	if err := a.UpdateProfile(1, privacy.Constant(privacy.Requirement{K: 50})); err != nil {
		t.Fatal(err)
	}
	res, err = a.Update(1, loc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reused {
		t.Error("reused after profile change")
	}
	if err := a.UpdateProfile(99999, privacy.Public()); !errors.Is(err, ErrUnknownUser) {
		t.Error("UpdateProfile unknown user")
	}
	if err := a.UpdateProfile(1, nil); err == nil {
		t.Error("nil profile accepted")
	}
}

func TestIncrementalReuseRate(t *testing.T) {
	a := newAnon(t, Config{Incremental: true})
	seedUsers(t, a, 1000, 20, 5)
	// Tiny movements: most updates should reuse their regions.
	src := rng.New(6)
	pts, _ := mobility.GeneratePoints(mobility.PopulationSpec{
		N: 1000, World: world, Dist: mobility.Uniform, Seed: 5,
	})
	for round := 0; round < 3; round++ {
		for i := range pts {
			pts[i] = world.ClampPoint(geo.Pt(
				pts[i].X+src.Range(-0.001, 0.001),
				pts[i].Y+src.Range(-0.001, 0.001),
			))
			if _, err := a.Update(uint64(i+1), pts[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := a.Stats()
	reuseRate := float64(st.Reused) / float64(st.Updates)
	if reuseRate < 0.5 {
		t.Errorf("reuse rate %v too low for micro-movements", reuseRate)
	}
}

func TestAllAlgorithmsSatisfyK(t *testing.T) {
	for _, alg := range []Algorithm{AlgQuadtree, AlgGrid, AlgGridML} {
		a := newAnon(t, Config{Algorithm: alg})
		pts := seedUsers(t, a, 1000, 25, 7)
		res, err := a.Update(1, pts[0])
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !res.SatisfiedK {
			t.Errorf("%v: k=25 not satisfied: %v", alg, res)
		}
		if !res.Region.Contains(pts[0]) {
			t.Errorf("%v: region excludes user", alg)
		}
	}
}

func TestCloakQueryCountsSeparately(t *testing.T) {
	a := newAnon(t, Config{})
	seedUsers(t, a, 100, 5, 8)
	if _, err := a.CloakQuery(1, geo.Pt(0.5, 0.5)); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.Queries != 1 {
		t.Errorf("Queries = %d", st.Queries)
	}
	if st.Updates != 100 {
		t.Errorf("Updates = %d", st.Updates)
	}
}

func TestTariffCharges(t *testing.T) {
	a := newAnon(t, Config{
		Tariff: func(req privacy.Requirement) float64 { return float64(req.K) * 0.01 },
	})
	a.Register(1, privacy.Constant(privacy.Requirement{K: 10}))
	a.Update(1, geo.Pt(0.5, 0.5))
	a.Update(1, geo.Pt(0.51, 0.5))
	if got := a.Charges(1); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("Charges = %v, want 0.2", got)
	}
	if a.Charges(99) != 0 {
		t.Error("unknown user has charges")
	}
}

func TestBestEffortCounted(t *testing.T) {
	a := newAnon(t, Config{})
	a.Register(1, privacy.Constant(privacy.Requirement{K: 1000}))
	a.Update(1, geo.Pt(0.5, 0.5)) // population of 1 cannot give k=1000
	if a.Stats().BestEffort != 1 {
		t.Error("best-effort not counted")
	}
}

func TestConcurrentUpdates(t *testing.T) {
	a := newAnon(t, Config{Incremental: true})
	prof := privacy.Constant(privacy.Requirement{K: 3})
	for i := 0; i < 50; i++ {
		a.Register(uint64(i+1), prof)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rng.New(uint64(w + 1))
			for i := 0; i < 200; i++ {
				id := uint64(src.Intn(50)) + 1
				a.Update(id, geo.Pt(src.Float64(), src.Float64()))
			}
		}(w)
	}
	wg.Wait()
	if a.Population() != 50 {
		t.Errorf("population = %d", a.Population())
	}
}

func BenchmarkAnonymizerUpdateQuadtree(b *testing.B) {
	a := newAnon(b, Config{})
	pts := seedUsers(b, a, 10000, 50, 1)
	src := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(src.Intn(len(pts))) + 1
		if _, err := a.Update(id, pts[id-1]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnonymizerUpdateIncremental(b *testing.B) {
	a := newAnon(b, Config{Incremental: true})
	pts := seedUsers(b, a, 10000, 50, 1)
	src := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(src.Intn(len(pts))) + 1
		if _, err := a.Update(id, pts[id-1]); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBatchUpdateMatchesIndividual(t *testing.T) {
	// Two identical systems, one fed per-user, one fed in batch: identical
	// regions for every user.
	mk := func() (*Anonymizer, []geo.Point) {
		a := newAnon(t, Config{})
		pts, _ := mobility.GeneratePoints(mobility.PopulationSpec{
			N: 800, World: world, Dist: mobility.Gaussian, Seed: 55,
		})
		prof := privacy.Constant(privacy.Requirement{K: 15})
		for i := range pts {
			a.Register(uint64(i+1), prof)
		}
		return a, pts
	}
	ind, pts := mk()
	// Individual updates happen after all users are indexed, so both paths
	// see the same occupancy: index everyone first with a pre-pass.
	for i, p := range pts {
		if _, err := ind.Update(uint64(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	indResults := make([]cloak.Result, len(pts))
	for i, p := range pts {
		res, err := ind.Update(uint64(i+1), p)
		if err != nil {
			t.Fatal(err)
		}
		indResults[i] = res
	}

	bat, _ := mk()
	reqs := make([]cloak.Request, len(pts))
	for i, p := range pts {
		reqs[i] = cloak.Request{ID: uint64(i + 1), Loc: p}
	}
	bat.BatchUpdate(reqs) // first pass indexes everyone
	batResults := bat.BatchUpdate(reqs)
	for i := range pts {
		if batResults[i] == nil {
			t.Fatalf("batch result %d nil", i)
		}
		if !batResults[i].Region.Eq(indResults[i].Region) {
			t.Fatalf("user %d: batch region %v != individual %v",
				i+1, batResults[i].Region, indResults[i].Region)
		}
	}
}

func TestBatchUpdateSkipsBadEntries(t *testing.T) {
	a := newAnon(t, Config{})
	a.Register(1, privacy.Constant(privacy.Requirement{K: 1}))
	a.Register(2, privacy.Constant(privacy.Requirement{K: 1}))
	a.SetMode(2, privacy.Passive)
	results := a.BatchUpdate([]cloak.Request{
		{ID: 1, Loc: geo.Pt(0.5, 0.5)},  // fine
		{ID: 2, Loc: geo.Pt(0.5, 0.5)},  // passive
		{ID: 99, Loc: geo.Pt(0.5, 0.5)}, // unknown
		{ID: 1, Loc: geo.Pt(5, 5)},      // out of world
	})
	if results[0] == nil {
		t.Error("valid entry dropped")
	}
	for i := 1; i < 4; i++ {
		if results[i] != nil {
			t.Errorf("bad entry %d produced a result", i)
		}
	}
}

func TestBatchUpdateDedupsForwarding(t *testing.T) {
	var forwarded atomic.Int64 // a batch's forwards run concurrently
	a := newAnon(t, Config{
		Forward: func(uint64, geo.Rect) error { forwarded.Add(1); return nil },
	})
	pts, _ := mobility.GeneratePoints(mobility.PopulationSpec{
		N: 500, World: world, Dist: mobility.Gaussian, Seed: 77,
	})
	prof := privacy.Constant(privacy.Requirement{K: 20})
	reqs := make([]cloak.Request, len(pts))
	for i, p := range pts {
		a.Register(uint64(i+1), prof)
		reqs[i] = cloak.Request{ID: uint64(i + 1), Loc: p}
	}
	a.BatchUpdate(reqs)
	forwarded.Store(0)
	// Feed the identical batch again, doubled: every user appears twice,
	// but within one batch each user is forwarded once.
	a.BatchUpdate(append(reqs, reqs...))
	if got := forwarded.Load(); got != int64(len(reqs)) {
		t.Errorf("forwarded %d messages for a doubled batch, want %d", got, len(reqs))
	}
}

// A batch carrying the same user twice with two regions forwards her once,
// with the region of her last entry — what two single updates would have
// left downstream.
func TestBatchUpdateForwardsLastRegionPerUser(t *testing.T) {
	fwd := newFlakyForwarder()
	var calls atomic.Int64
	a := newAnon(t, Config{Forward: func(id uint64, region geo.Rect) error {
		calls.Add(1)
		return fwd.forward(id, region)
	}})
	seedUsers(t, a, 2000, 5, 4)
	calls.Store(0)
	const u = 1
	p0, p1 := geo.Pt(0.1, 0.1), geo.Pt(0.9, 0.9)
	res := a.BatchUpdate([]cloak.Request{{ID: u, Loc: p0}, {ID: 2, Loc: geo.Pt(0.5, 0.5)}, {ID: u, Loc: p1}})
	for i, r := range res {
		if r == nil {
			t.Fatalf("entry %d failed", i)
		}
	}
	if res[0].Region == res[2].Region {
		t.Fatalf("test needs two distinct regions for user %d, both are %v", u, res[0].Region)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("forwarded %d messages for two distinct users, want 2", got)
	}
	if got, _ := fwd.regionOf(u); got != res[2].Region {
		t.Errorf("forwarder holds %v for user %d, want her last region %v", got, u, res[2].Region)
	}
}

// TestBatchUpdateCachesTheForwardedRegion pins invariant I1 at the server
// across a batch: BatchUpdate cloaks past the incremental cache, so it must
// leave the region it forwarded cached, not the pre-batch one. Otherwise
// the next single update inside that stale region is "reused", forwards
// nothing, and the database keeps the batch's region — which no longer
// contains the user's acknowledged location.
func TestBatchUpdateCachesTheForwardedRegion(t *testing.T) {
	const u = 1
	fwd := newFlakyForwarder()
	a := newAnon(t, Config{Incremental: true, Forward: fwd.forward})
	seedUsers(t, a, 2000, 5, 4)
	p0, p1 := geo.Pt(0.1, 0.1), geo.Pt(0.9, 0.9)
	if _, err := a.Update(u, p0); err != nil {
		t.Fatal(err)
	}
	if res := a.BatchUpdate([]cloak.Request{{ID: u, Loc: p1}}); res[0] == nil || !res[0].Region.Contains(p1) {
		t.Fatalf("batch update result = %+v", res[0])
	}
	res, err := a.Update(u, p0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Region.Contains(p0) {
		t.Fatalf("acknowledged region %v misses the location %v", res.Region, p0)
	}
	if got, _ := fwd.regionOf(u); !got.Eq(res.Region) {
		t.Errorf("database holds %v for the user, anonymizer acknowledged %v (reused=%v)",
			got, res.Region, res.Reused)
	}
}

// TestUnchangedRecomputeIsNotForwarded: a cached region holding more than
// MaxSlack×k users is recomputed on every update, and when the recompute
// lands on the same region the database already holds it. The user's
// second, unmoved update is then reused: it is not forwarded again.
func TestUnchangedRecomputeIsNotForwarded(t *testing.T) {
	const k = 5
	var forwarded atomic.Int64
	a := newAnon(t, Config{Incremental: true,
		Forward: func(uint64, geo.Rect) error { forwarded.Add(1); return nil }})
	prof := privacy.Constant(privacy.Requirement{K: k})
	// 8k+1 users crowd the top-right quadrant and user 1 stands alone in
	// the bottom-left one, so her quadtree region is the whole world.
	for id := uint64(1); id <= 8*k+2; id++ {
		loc := geo.Pt(0.75+float64(id)*1e-3, 0.75)
		if id == 1 {
			loc = geo.Pt(0.1, 0.1)
		}
		if err := a.Register(id, prof); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Update(id, loc); err != nil {
			t.Fatal(err)
		}
	}
	before := forwarded.Load()
	res, err := a.Update(1, geo.Pt(0.1, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Region.Eq(world) || res.K <= 8*k {
		t.Fatalf("region %v holding %d users, want the world holding more than %d", res.Region, res.K, 8*k)
	}
	if !res.Reused || forwarded.Load() != before {
		t.Fatalf("unchanged recomputed region: reused=%v, %d forwards, want reused and none",
			res.Reused, forwarded.Load()-before)
	}
}

// TestFailedForwardInvalidatesIncrementalCache pins invariant I1 across a
// failed forward: a region the database never received must not stay
// cached. Otherwise, once the link is back, the next update inside that
// region is "reused" and acknowledged while the database still holds the
// user's previous region.
func TestFailedForwardInvalidatesIncrementalCache(t *testing.T) {
	const u = 1
	fwd := newFlakyForwarder()
	a := newAnon(t, Config{Incremental: true, Forward: fwd.forward})
	seedUsers(t, a, 2000, 5, 4)
	p0, p1 := geo.Pt(0.1, 0.1), geo.Pt(0.9, 0.9)
	if _, err := a.Update(u, p0); err != nil {
		t.Fatal(err)
	}
	fwd.setDown(true)
	if _, err := a.Update(u, p1); err == nil {
		t.Fatal("update with the link down succeeded without a spill queue")
	}
	fwd.setDown(false)
	res, err := a.Update(u, p1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reused {
		t.Errorf("region %v reused although its forward failed", res.Region)
	}
	if got, _ := fwd.regionOf(u); !got.Eq(res.Region) || !got.Contains(p1) {
		t.Errorf("database holds %v for the user, anonymizer acknowledged %v at %v (reused=%v)",
			got, res.Region, p1, res.Reused)
	}
}

// TestBatchFailedForwardInvalidatesIncrementalCache is
// TestFailedForwardInvalidatesIncrementalCache for the batch path: a batch
// region the database never received must not stay cached, whether the
// forward failed with no spill queue or was refused by a full one. The
// user's next update inside that region must be recloaked and forwarded,
// not acknowledged as reused.
func TestBatchFailedForwardInvalidatesIncrementalCache(t *testing.T) {
	p0, p1 := geo.Pt(0.1, 0.1), geo.Pt(0.9, 0.9)
	// recloaked sends an update for u at p1 with the link up and checks
	// that it was recloaked and reached the database.
	recloaked := func(t *testing.T, a *Anonymizer, fwd *flakyForwarder, u uint64) {
		t.Helper()
		res, err := a.Update(u, p1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reused {
			t.Errorf("user %d: region %v reused although its batch forward failed", u, res.Region)
		}
		if got, _ := fwd.regionOf(u); !got.Eq(res.Region) || !got.Contains(p1) {
			t.Errorf("user %d: database holds %v, anonymizer acknowledged %v at %v (reused=%v)",
				u, got, res.Region, p1, res.Reused)
		}
	}

	t.Run("no spill queue", func(t *testing.T) {
		const u = 1
		fwd := newFlakyForwarder()
		a := newAnon(t, Config{Incremental: true, Forward: fwd.forward})
		seedUsers(t, a, 2000, 5, 4)
		if _, err := a.Update(u, p0); err != nil {
			t.Fatal(err)
		}
		fwd.setDown(true)
		a.BatchUpdate([]cloak.Request{{ID: u, Loc: p1}})
		if st := a.Stats(); st.ForwardErrs == 0 {
			t.Fatal("the batch forward did not fail with the link down")
		}
		fwd.setDown(false)
		recloaked(t, a, fwd, u)
	})

	t.Run("spill queue full under backpressure", func(t *testing.T) {
		fwd := newFlakyForwarder()
		a := newAnon(t, Config{Incremental: true, Forward: fwd.forward,
			ForwardQueue: 1, ForwardBackpressure: true,
			ForwardRetryBase: 5 * time.Millisecond, ForwardRetryMax: 20 * time.Millisecond})
		t.Cleanup(a.Close)
		seedUsers(t, a, 2000, 5, 4)
		for _, u := range []uint64{1, 2} {
			if _, err := a.Update(u, p0); err != nil {
				t.Fatal(err)
			}
		}
		// The queue is empty, so admission lets both users in; the first
		// failed forward takes its one slot and the other is refused.
		fwd.setDown(true)
		results := a.BatchUpdate([]cloak.Request{{ID: 1, Loc: p1}, {ID: 2, Loc: p1}})
		var refused []uint64
		for i, res := range results {
			if res == nil {
				refused = append(refused, uint64(i+1))
			}
		}
		if len(refused) != 1 {
			t.Fatalf("%d users refused by a one-slot queue, want 1", len(refused))
		}
		fwd.setDown(false)
		waitFor(t, 5*time.Second, func() bool { return a.Stats().QueueDepth == 0 }, "queue drain")
		recloaked(t, a, fwd, refused[0])
	})
}
