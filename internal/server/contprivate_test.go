package server

import (
	"testing"

	"repro/internal/geo"
	"repro/internal/rng"
)

func TestContinuousPrivateRangeLifecycle(t *testing.T) {
	s := newServer(t)
	region := geo.R(0.4, 0.4, 0.5, 0.5)
	id, err := s.RegisterContinuousPrivateRange(region, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if s.ContinuousPrivateQueryCount() != 1 {
		t.Error("query count")
	}
	got, ok := s.ContinuousPrivateRange(id)
	if !ok || len(got) != 0 {
		t.Errorf("initial candidates = %v, %v", got, ok)
	}
	if !s.UnregisterContinuousPrivateRange(id) || s.UnregisterContinuousPrivateRange(id) {
		t.Error("unregister misbehaved")
	}
	if _, ok := s.ContinuousPrivateRange(id); ok {
		t.Error("read after unregister")
	}
	// Validation.
	if _, err := s.RegisterContinuousPrivateRange(geo.Rect{Min: geo.Pt(1, 1)}, 0.1); err == nil {
		t.Error("invalid region accepted")
	}
	if _, err := s.RegisterContinuousPrivateRange(region, -1); err == nil {
		t.Error("negative radius accepted")
	}
}

func TestContinuousPrivateRangeSeesExistingMoving(t *testing.T) {
	s := newServer(t)
	s.UpdateMoving(1, geo.Pt(0.45, 0.45)) // inside the future filter
	s.UpdateMoving(2, geo.Pt(0.9, 0.9))   // far away
	id, err := s.RegisterContinuousPrivateRange(geo.R(0.4, 0.4, 0.5, 0.5), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := s.ContinuousPrivateRange(id)
	if len(got) != 1 || got[0].ID != 1 {
		t.Errorf("initial candidates = %v", got)
	}
}

func TestContinuousPrivateRangeTracksMovement(t *testing.T) {
	s := newServer(t)
	region := geo.R(0.4, 0.4, 0.5, 0.5)
	id, _ := s.RegisterContinuousPrivateRange(region, 0.05)

	// Enter the filter.
	s.UpdateMoving(7, geo.Pt(0.45, 0.42))
	got, _ := s.ContinuousPrivateRange(id)
	if len(got) != 1 || got[0].ID != 7 {
		t.Fatalf("after enter: %v", got)
	}
	// Move within.
	s.UpdateMoving(7, geo.Pt(0.46, 0.43))
	got, _ = s.ContinuousPrivateRange(id)
	if len(got) != 1 || !got[0].Loc.Eq(geo.Pt(0.46, 0.43)) {
		t.Fatalf("after inner move: %v", got)
	}
	// Leave.
	s.UpdateMoving(7, geo.Pt(0.9, 0.9))
	got, _ = s.ContinuousPrivateRange(id)
	if len(got) != 0 {
		t.Fatalf("after leave: %v", got)
	}
	// Come back and then disappear.
	s.UpdateMoving(7, geo.Pt(0.44, 0.44))
	s.RemoveMoving(7)
	got, _ = s.ContinuousPrivateRange(id)
	if len(got) != 0 {
		t.Fatalf("after removal: %v", got)
	}
}

func TestContinuousPrivateRangeMove(t *testing.T) {
	s := newServer(t)
	s.UpdateMoving(1, geo.Pt(0.2, 0.2))
	s.UpdateMoving(2, geo.Pt(0.8, 0.8))
	id, _ := s.RegisterContinuousPrivateRange(geo.R(0.15, 0.15, 0.25, 0.25), 0.02)
	got, _ := s.ContinuousPrivateRange(id)
	if len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("before move: %v", got)
	}
	// The user's new cloaked region is across the map.
	if err := s.MoveContinuousPrivateRange(id, geo.R(0.75, 0.75, 0.85, 0.85)); err != nil {
		t.Fatal(err)
	}
	got, _ = s.ContinuousPrivateRange(id)
	if len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("after move: %v", got)
	}
	// Maintenance still works at the new anchor.
	s.UpdateMoving(2, geo.Pt(0.1, 0.1))
	got, _ = s.ContinuousPrivateRange(id)
	if len(got) != 0 {
		t.Fatalf("after object left new filter: %v", got)
	}
	if err := s.MoveContinuousPrivateRange(999, geo.R(0, 0, 0.1, 0.1)); err == nil {
		t.Error("move of unknown query accepted")
	}
	if err := s.MoveContinuousPrivateRange(id, geo.Rect{Min: geo.Pt(1, 1)}); err == nil {
		t.Error("invalid region accepted")
	}
}

// The maintained set must always equal a fresh range computation — the
// continuous-private analogue of I10 — under random churn.
func TestContinuousPrivateMatchesFreshUnderChurn(t *testing.T) {
	s := newServer(t)
	src := rng.New(41)
	type standing struct {
		id     uint64
		at     geo.Point // the user's exact location, inside region
		region geo.Rect
		radius float64
	}
	var queries []standing
	for i := 0; i < 10; i++ {
		c := geo.Pt(src.Float64(), src.Float64())
		region := geo.RectAround(c, 0.05+0.1*src.Float64()).Clip(world)
		radius := 0.02 + 0.05*src.Float64()
		id, err := s.RegisterContinuousPrivateRange(region, radius)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, standing{id: id, at: c, region: region, radius: radius})
	}
	for step := 0; step < 3000; step++ {
		oid := uint64(src.Intn(100)) + 1
		if src.Float64() < 0.05 {
			s.RemoveMoving(oid)
		} else {
			s.UpdateMoving(oid, geo.Pt(src.Float64(), src.Float64()))
		}
		if step%250 != 0 {
			continue
		}
		for _, q := range queries {
			got, ok := s.ContinuousPrivateRange(q.id)
			if !ok {
				t.Fatal("query vanished")
			}
			// Fresh evaluation over the moving index.
			want := map[uint64]bool{}
			s.mu.RLock()
			for _, o := range s.moving.Search(q.region.Expand(q.radius), nil) {
				want[o.ID] = true
			}
			s.mu.RUnlock()
			if len(got) != len(want) {
				t.Fatalf("step %d query %d: maintained %d, fresh %d",
					step, q.id, len(got), len(want))
			}
			for _, o := range got {
				if !want[o.ID] {
					t.Fatalf("step %d: stale member %d", step, o.ID)
				}
			}
			// Refined on the device, the standing answer equals a one-shot
			// private range query (class "" includes the movers).
			oneShot, err := s.PrivateRange(PrivateRangeQuery{Region: q.region, Radius: q.radius})
			if err != nil {
				t.Fatal(err)
			}
			cont, fresh := RefineRange(q.at, q.radius, got), RefineRange(q.at, q.radius, oneShot)
			if len(cont) != len(fresh) {
				t.Fatalf("step %d query %d: refined continuous %d, one-shot %d",
					step, q.id, len(cont), len(fresh))
			}
			for i := range cont {
				if cont[i].ID != fresh[i].ID {
					t.Fatalf("step %d query %d: refined answers differ at %d", step, q.id, i)
				}
			}
		}
	}
}

func BenchmarkContinuousPrivateUpdates(b *testing.B) {
	s := newServer(b)
	src := rng.New(1)
	for i := 0; i < 200; i++ {
		c := geo.Pt(src.Float64(), src.Float64())
		if _, err := s.RegisterContinuousPrivateRange(
			geo.RectAround(c, 0.05).Clip(world), 0.03); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 5000; i++ {
		s.UpdateMoving(uint64(i+1), geo.Pt(src.Float64(), src.Float64()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(i%5000) + 1
		s.UpdateMoving(id, geo.Pt(src.Float64(), src.Float64()))
	}
}
