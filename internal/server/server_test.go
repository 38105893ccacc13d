package server

import (
	"math"
	"reflect"
	"slices"
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
	s, err := New(Config{World: world})
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

// TestStationaryStoreHistory walks the stationary store through a run of
// loads — shuffled ID order, a set grown above and below every ID, shrunk
// from the end and the middle, and an object moved — and checks after each
// that a whole-world private range answers exactly the objects of the last
// load, in ascending ID order, and that the count follows.
func TestStationaryStoreHistory(t *testing.T) {
	s := newServer(t)
	obj := func(id uint64) PublicObject {
		return PublicObject{ID: id, Class: "gas", Loc: geo.Pt(float64(id%7)/7, float64(id%11)/11)}
	}
	moved := PublicObject{ID: 30, Class: "gas", Loc: geo.Pt(0.9, 0.1)}
	steps := []struct {
		name string
		objs []PublicObject
	}{
		{"load", []PublicObject{obj(40), obj(10), obj(50), obj(30), obj(20)}},
		{"grow above", []PublicObject{obj(60), obj(40), obj(10), obj(50), obj(30), obj(20)}},
		{"shrink last", []PublicObject{obj(40), obj(10), obj(50), obj(30), obj(20)}},
		{"shrink middle", []PublicObject{obj(40), obj(10), obj(50), obj(30)}},
		{"grow below", []PublicObject{obj(30), obj(5), obj(10)}},
		{"move", []PublicObject{obj(10), moved, obj(5)}},
		{"empty", nil},
	}
	for _, step := range steps {
		if err := s.LoadStationary(step.objs); err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(step.objs)
		SortObjects(want)
		got, err := s.PrivateRange(PrivateRangeQuery{Region: world, Class: "gas"})
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("after %s: range answer %v (err %v), want %v", step.name, got, err, want)
		}
		if s.StationaryCount() != len(want) {
			t.Fatalf("after %s: StationaryCount = %d, want %d", step.name, s.StationaryCount(), len(want))
		}
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

// TestUpdatePrivateFailureLeavesStateConsistent pins the rejection
// contract: a region UpdatePrivate refuses — malformed, or outside the
// world — leaves the region index and the continuous engine exactly as
// they were, for a new user and for a re-update of an existing one.
func TestUpdatePrivateFailureLeavesStateConsistent(t *testing.T) {
	s := newServer(t)
	home := geo.R(0.1, 0.1, 0.3, 0.3)
	if err := s.UpdatePrivate(1, home); err != nil {
		t.Fatal(err)
	}
	contID, err := s.RegisterContinuousCount(geo.R(0, 0, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	before, _ := s.ContinuousCount(contID)

	rejected := []geo.Rect{
		{Min: geo.Pt(0.7, 0.7), Max: geo.Pt(0.5, 0.5)}, // inverted
		{Min: geo.Pt(math.NaN(), 0.5), Max: geo.Pt(0.7, 0.7)},
		geo.R(2, 2, 3, 3), // outside the world
	}
	for _, id := range []uint64{2, 1} {
		for _, r := range rejected {
			if err := s.UpdatePrivate(id, r); err == nil {
				t.Fatalf("UpdatePrivate(%d, %v) accepted", id, r)
			}
		}
	}

	if n := s.PrivateUserCount(); n != 1 {
		t.Errorf("PrivateUserCount = %d after rejected updates, want 1", n)
	}
	if _, ok := s.PrivateRegion(2); ok {
		t.Error("a rejected update stored user 2")
	}
	if r, ok := s.PrivateRegion(1); !ok || !r.Eq(home) {
		t.Errorf("rejected re-updates changed user 1's region to %v", r)
	}
	if m := s.Metrics(); m.PrivateUpdates != 1 {
		t.Errorf("PrivateUpdates = %d, want 1 (rejected updates must not count)", m.PrivateUpdates)
	}
	// The indexed probe, the full scan and the continuous engine all see
	// user 1 alone, at its old region.
	q := PublicRangeCountQuery{Query: geo.R(0, 0, 1, 1)}
	indexed, err := s.PublicRangeCount(q)
	if err != nil {
		t.Fatal(err)
	}
	scanned, err := s.PublicRangeCountScan(q)
	if err != nil {
		t.Fatal(err)
	}
	if indexed.NaiveCount != 1 || scanned.NaiveCount != 1 {
		t.Errorf("indexed count %d, scan count %d, want both 1", indexed.NaiveCount, scanned.NaiveCount)
	}
	if got := s.privIdx.Query(geo.R(0.4, 0.4, 1, 1), nil); len(got) != 0 {
		t.Errorf("region index holds %v where only rejected regions pointed", got)
	}
	if after, _ := s.ContinuousCount(contID); after != before {
		t.Errorf("continuous answer moved from %+v to %+v", before, after)
	}
}
