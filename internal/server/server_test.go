package server

import (
	"fmt"
	"testing"

	"repro/internal/geo"
	"repro/internal/mobility"
)

var world = geo.R(0, 0, 1, 1)

func newServer(t testing.TB) *Server {
	t.Helper()
	s, err := New(Config{World: world})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// loadObjects fills the server with n uniform stationary objects of the
// given class and returns them.
func loadObjects(t testing.TB, s *Server, n int, class string, seed uint64) []PublicObject {
	t.Helper()
	pts, err := mobility.GeneratePoints(mobility.PopulationSpec{
		N: n, World: world, Dist: mobility.Uniform, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]PublicObject, n)
	for i, p := range pts {
		objs[i] = PublicObject{ID: uint64(i + 1), Class: class, Loc: p}
	}
	if err := s.LoadStationary(objs); err != nil {
		t.Fatal(err)
	}
	return objs
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	s, err := New(Config{World: world, MovingGridCols: 8, MovingGridRows: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !s.World().Eq(world) {
		t.Error("World mismatch")
	}
}

func TestLoadStationaryValidation(t *testing.T) {
	s := newServer(t)
	err := s.LoadStationary([]PublicObject{
		{ID: 1, Loc: geo.Pt(0.5, 0.5)},
		{ID: 1, Loc: geo.Pt(0.6, 0.6)},
	})
	if err == nil {
		t.Error("duplicate IDs accepted")
	}
	err = s.LoadStationary([]PublicObject{{ID: 1, Loc: geo.Pt(5, 5)}})
	if err == nil {
		t.Error("out-of-world object accepted")
	}
}

func TestAddRemoveStationary(t *testing.T) {
	s := newServer(t)
	if err := s.AddStationary(PublicObject{ID: 1, Class: "gas", Loc: geo.Pt(0.5, 0.5)}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddStationary(PublicObject{ID: 1, Class: "gas", Loc: geo.Pt(0.6, 0.6)}); err == nil {
		t.Error("duplicate AddStationary accepted")
	}
	if err := s.AddStationary(PublicObject{ID: 2, Loc: geo.Pt(2, 2)}); err == nil {
		t.Error("out-of-world AddStationary accepted")
	}
	if s.StationaryCount() != 1 {
		t.Errorf("StationaryCount = %d", s.StationaryCount())
	}
	if !s.RemoveStationary(1) {
		t.Error("RemoveStationary failed")
	}
	if s.RemoveStationary(1) {
		t.Error("double remove succeeded")
	}
	if s.StationaryCount() != 0 {
		t.Error("count after removal")
	}
}

func TestMovingObjects(t *testing.T) {
	s := newServer(t)
	if err := s.UpdateMoving(9, geo.Pt(0.3, 0.3)); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateMoving(9, geo.Pt(0.4, 0.4)); err != nil {
		t.Fatal(err)
	}
	if s.MovingCount() != 1 {
		t.Errorf("MovingCount = %d", s.MovingCount())
	}
	if err := s.UpdateMoving(10, geo.Pt(3, 3)); err == nil {
		t.Error("out-of-world moving accepted")
	}
	if !s.RemoveMoving(9) || s.RemoveMoving(9) {
		t.Error("RemoveMoving misbehaved")
	}
}

func TestPrivateDataLifecycle(t *testing.T) {
	s := newServer(t)
	r := geo.R(0.2, 0.2, 0.4, 0.4)
	if err := s.UpdatePrivate(5, r); err != nil {
		t.Fatal(err)
	}
	if s.PrivateUserCount() != 1 {
		t.Error("PrivateUserCount")
	}
	got, ok := s.PrivateRegion(5)
	if !ok || !got.Eq(r) {
		t.Errorf("PrivateRegion = %v, %v", got, ok)
	}
	// Update in place.
	r2 := geo.R(0.5, 0.5, 0.6, 0.6)
	if err := s.UpdatePrivate(5, r2); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.PrivateRegion(5); !got.Eq(r2) {
		t.Error("region not updated")
	}
	if !s.RemovePrivate(5) || s.RemovePrivate(5) {
		t.Error("RemovePrivate misbehaved")
	}
	// Validation.
	if err := s.UpdatePrivate(6, geo.Rect{Min: geo.Pt(1, 1), Max: geo.Pt(0, 0)}); err == nil {
		t.Error("invalid region accepted")
	}
	if err := s.UpdatePrivate(7, geo.R(5, 5, 6, 6)); err == nil {
		t.Error("out-of-world region accepted")
	}
	// Degenerate (k=1) regions are allowed.
	if err := s.UpdatePrivate(8, geo.PointRect(geo.Pt(0.5, 0.5))); err != nil {
		t.Errorf("degenerate region rejected: %v", err)
	}
}

// Invariant I9: the private store holds regions only. The compiler enforces
// the type; this test documents the API guarantee that no method accepts an
// exact private location.
func TestPrivateStoreHoldsRegionsOnly(t *testing.T) {
	s := newServer(t)
	region := geo.R(0.1, 0.1, 0.3, 0.3)
	if err := s.UpdatePrivate(1, region); err != nil {
		t.Fatal(err)
	}
	recs := s.privateSnapshot()
	if len(recs) != 1 {
		t.Fatal("snapshot size")
	}
	if recs[0].Region.IsPoint() {
		t.Error("region degenerated unexpectedly")
	}
}

func TestPrivateSnapshotSorted(t *testing.T) {
	s := newServer(t)
	for _, id := range []uint64{42, 7, 19, 3} {
		if err := s.UpdatePrivate(id, geo.R(0.1, 0.1, 0.2, 0.2)); err != nil {
			t.Fatal(err)
		}
	}
	recs := s.privateSnapshot()
	for i := 1; i < len(recs); i++ {
		if recs[i].ID <= recs[i-1].ID {
			t.Fatal("snapshot not sorted by id")
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := newServer(t)
	loadObjects(t, s, 500, "gas", 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			s.UpdatePrivate(uint64(i%10+1), geo.R(0.1, 0.1, 0.3, 0.3))
			s.UpdateMoving(uint64(i%5+1), geo.Pt(0.5, 0.5))
		}
	}()
	for i := 0; i < 200; i++ {
		s.PrivateRange(PrivateRangeQuery{Region: geo.R(0.4, 0.4, 0.6, 0.6), Radius: 0.1})
		s.PublicRangeCount(PublicRangeCountQuery{Query: geo.R(0, 0, 0.5, 0.5)})
	}
	<-done
}

func TestMetricsCount(t *testing.T) {
	s := newServer(t)
	loadObjects(t, s, 100, "gas", 1)
	s.UpdatePrivate(1, geo.R(0.1, 0.1, 0.2, 0.2))
	s.UpdatePrivate(1, geo.R(0.2, 0.2, 0.3, 0.3))
	s.RemovePrivate(1)
	s.UpdateMoving(5, geo.Pt(0.5, 0.5))
	s.PrivateRange(PrivateRangeQuery{Region: geo.R(0.4, 0.4, 0.6, 0.6), Radius: 0.05})
	s.PrivateNN(PrivateNNQuery{Region: geo.R(0.4, 0.4, 0.6, 0.6)})
	s.PublicRangeCount(PublicRangeCountQuery{Query: geo.R(0, 0, 1, 1)})
	s.PublicNN(PublicNNQuery{From: geo.Pt(0.5, 0.5), Samples: 10, Seed: 1})
	id, _ := s.RegisterContinuousCount(geo.R(0, 0, 0.5, 0.5))
	s.ContinuousCount(id)

	m := s.Metrics()
	if m.PrivateUpdates != 2 || m.PrivateRemovals != 1 || m.MovingUpdates != 1 {
		t.Errorf("write counters = %+v", m)
	}
	if m.PrivateRangeQs != 1 || m.PrivateNNQs != 1 || m.PublicCountQs != 1 ||
		m.PublicNNQs != 1 || m.ContinuousReads != 1 {
		t.Errorf("query counters = %+v", m)
	}
}

// TestUpdatePrivateFailureLeavesStateConsistent pins the partial-failure
// contract: when the region-index upsert fails, the private map, the
// index, and the continuous engine must all stay at their pre-call state.
// The old code mutated s.private before the index write, leaving the user
// counted by full scans but invisible to indexed queries, and skipped the
// continuous-engine notification entirely.
func TestUpdatePrivateFailureLeavesStateConsistent(t *testing.T) {
	s := newServer(t)
	if err := s.UpdatePrivate(1, geo.R(0.1, 0.1, 0.3, 0.3)); err != nil {
		t.Fatal(err)
	}
	contID, err := s.RegisterContinuousCount(geo.R(0, 0, 1, 1))
	if err != nil {
		t.Fatal(err)
	}

	// Force the index write to fail for user 2 only; everything else
	// passes through to the real index.
	injected := fmt.Errorf("injected index failure")
	s.privUpsertHook = func(id uint64, region geo.Rect) error {
		if id == 2 {
			return injected
		}
		return s.privIdx.Upsert(id, region)
	}
	if err := s.UpdatePrivate(2, geo.R(0.5, 0.5, 0.7, 0.7)); err != injected {
		t.Fatalf("UpdatePrivate error = %v, want the injected failure", err)
	}

	if n := s.PrivateUserCount(); n != 1 {
		t.Errorf("PrivateUserCount = %d after failed update, want 1", n)
	}
	if _, ok := s.PrivateRegion(2); ok {
		t.Error("failed update left user 2 in the private map")
	}
	if m := s.Metrics(); m.PrivateUpdates != 1 {
		t.Errorf("PrivateUpdates = %d, want 1 (failed update must not count)", m.PrivateUpdates)
	}
	// Indexed and full-scan answers must agree: the whole-world count sees
	// exactly the one user both ways.
	q := PublicRangeCountQuery{Query: geo.R(0, 0, 1, 1)}
	indexed, err := s.PublicRangeCount(q)
	if err != nil {
		t.Fatal(err)
	}
	scanned, err := s.PublicRangeCountScan(q)
	if err != nil {
		t.Fatal(err)
	}
	if indexed.NaiveCount != scanned.NaiveCount || indexed.NaiveCount != 1 {
		t.Errorf("indexed count %d vs scan count %d, want both 1",
			indexed.NaiveCount, scanned.NaiveCount)
	}
	// The continuous query saw user 1 only.
	if ans, ok := s.ContinuousCount(contID); !ok || ans.Hi != 1 {
		t.Errorf("continuous answer = %+v, want Hi=1", ans)
	}

	// A failed *re*-update of an existing user keeps the old region.
	s.privUpsertHook = func(id uint64, region geo.Rect) error { return injected }
	if err := s.UpdatePrivate(1, geo.R(0.8, 0.8, 0.9, 0.9)); err != injected {
		t.Fatalf("UpdatePrivate error = %v, want the injected failure", err)
	}
	if r, ok := s.PrivateRegion(1); !ok || !r.Eq(geo.R(0.1, 0.1, 0.3, 0.3)) {
		t.Errorf("failed re-update changed user 1's region to %v", r)
	}
}
