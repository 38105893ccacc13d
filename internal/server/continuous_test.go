package server

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/prob"
	"repro/internal/rng"
)

func TestContinuousCountLifecycle(t *testing.T) {
	s := newServer(t)
	q := geo.R(0.2, 0.2, 0.6, 0.6)
	id, err := s.RegisterContinuousCount(q)
	if err != nil {
		t.Fatal(err)
	}
	if s.ContinuousQueryCount() != 1 {
		t.Error("query count")
	}
	ans, ok := s.ContinuousCount(id)
	if !ok || ans.Expected != 0 || ans.Hi != 0 {
		t.Errorf("initial answer = %+v, %v", ans, ok)
	}
	if !s.UnregisterContinuousCount(id) || s.UnregisterContinuousCount(id) {
		t.Error("unregister misbehaved")
	}
	if _, ok := s.ContinuousCount(id); ok {
		t.Error("answer after unregister")
	}
	if _, err := s.RegisterContinuousCount(geo.Rect{Min: geo.Pt(1, 1)}); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestContinuousCountSeesExistingUsers(t *testing.T) {
	s := newServer(t)
	if err := s.UpdatePrivate(1, geo.R(0.3, 0.3, 0.4, 0.4)); err != nil {
		t.Fatal(err)
	}
	id, err := s.RegisterContinuousCount(geo.R(0.2, 0.2, 0.6, 0.6))
	if err != nil {
		t.Fatal(err)
	}
	ans, _ := s.ContinuousCount(id)
	if ans.Expected != 1 || ans.Lo != 1 || ans.Hi != 1 {
		t.Errorf("answer = %+v, want certain 1", ans)
	}
}

func TestContinuousCountTracksUpdates(t *testing.T) {
	s := newServer(t)
	query := geo.R(0.0, 0.0, 0.5, 0.5)
	id, _ := s.RegisterContinuousCount(query)

	// Enter fully.
	s.UpdatePrivate(1, geo.R(0.1, 0.1, 0.2, 0.2))
	ans, _ := s.ContinuousCount(id)
	if ans.Expected != 1 || ans.Lo != 1 || ans.Hi != 1 {
		t.Fatalf("after enter: %+v", ans)
	}
	// Move to straddle: 50% overlap.
	s.UpdatePrivate(1, geo.R(0.4, 0.1, 0.6, 0.2))
	ans, _ = s.ContinuousCount(id)
	if math.Abs(ans.Expected-0.5) > 1e-9 || ans.Lo != 0 || ans.Hi != 1 {
		t.Fatalf("after straddle: %+v", ans)
	}
	// Leave entirely.
	s.UpdatePrivate(1, geo.R(0.7, 0.7, 0.8, 0.8))
	ans, _ = s.ContinuousCount(id)
	if ans.Expected != 0 || ans.Hi != 0 {
		t.Fatalf("after leave: %+v", ans)
	}
	// Come back and deregister.
	s.UpdatePrivate(1, geo.R(0.1, 0.1, 0.2, 0.2))
	s.RemovePrivate(1)
	ans, _ = s.ContinuousCount(id)
	if ans.Expected != 0 || ans.Hi != 0 {
		t.Fatalf("after remove: %+v", ans)
	}
}

// The maintained answer must always equal a from-scratch evaluation —
// incremental ≡ recompute, the continuous-query analogue of invariant I10.
func TestContinuousMatchesSnapshotUnderChurn(t *testing.T) {
	s := newServer(t)
	queries := []geo.Rect{
		geo.R(0, 0, 0.5, 0.5),
		geo.R(0.25, 0.25, 0.75, 0.75),
		geo.R(0.6, 0.1, 0.9, 0.9),
	}
	ids := make([]uint64, len(queries))
	for i, q := range queries {
		id, err := s.RegisterContinuousCount(q)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	src := rng.New(31)
	for step := 0; step < 2000; step++ {
		uid := uint64(src.Intn(50)) + 1
		if src.Float64() < 0.1 {
			s.RemovePrivate(uid)
		} else {
			c := geo.Pt(src.Float64(), src.Float64())
			half := 0.01 + 0.1*src.Float64()
			s.UpdatePrivate(uid, geo.RectAround(c, half).Clip(world))
		}
		if step%200 != 0 {
			continue
		}
		for i, q := range queries {
			inc, _ := s.ContinuousCount(ids[i])
			fresh, err := s.PublicRangeCount(PublicRangeCountQuery{Query: q})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(inc.Expected-fresh.Answer.Expected) > 1e-6 {
				t.Fatalf("step %d query %d: incremental E=%v fresh E=%v",
					step, i, inc.Expected, fresh.Answer.Expected)
			}
			if inc.Lo != fresh.Answer.Lo || inc.Hi != fresh.Answer.Hi {
				t.Fatalf("step %d query %d: incremental [%d,%d] fresh [%d,%d]",
					step, i, inc.Lo, inc.Hi, fresh.Answer.Lo, fresh.Answer.Hi)
			}
		}
	}
}

func TestContinuousCountPDF(t *testing.T) {
	s := newServer(t)
	id, _ := s.RegisterContinuousCount(geo.R(0, 0, 0.5, 0.5))
	s.UpdatePrivate(1, geo.R(0.1, 0.1, 0.2, 0.2)) // p=1
	s.UpdatePrivate(2, geo.R(0.4, 0.1, 0.6, 0.2)) // p=0.5
	ans, ok := s.ContinuousCountPDF(id)
	if !ok {
		t.Fatal("missing PDF")
	}
	if math.Abs(ans.Expected-1.5) > 1e-9 {
		t.Errorf("PDF Expected = %v", ans.Expected)
	}
	if len(ans.PDF) != 3 || math.Abs(ans.PDF[1]-0.5) > 1e-9 || math.Abs(ans.PDF[2]-0.5) > 1e-9 {
		t.Errorf("PDF = %v", ans.PDF)
	}
	if _, ok := s.ContinuousCountPDF(999); ok {
		t.Error("PDF for unknown query")
	}
}

func BenchmarkContinuousUpdates(b *testing.B) {
	s := newServer(b)
	src := rng.New(7)
	// 100 standing queries, 10k users.
	for i := 0; i < 100; i++ {
		c := geo.Pt(src.Float64(), src.Float64())
		if _, err := s.RegisterContinuousCount(geo.RectAround(c, 0.05).Clip(world)); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 10000; i++ {
		c := geo.Pt(src.Float64(), src.Float64())
		s.UpdatePrivate(uint64(i+1), geo.RectAround(c, 0.02).Clip(world))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		uid := uint64(i%10000) + 1
		c := geo.Pt(src.Float64(), src.Float64())
		s.UpdatePrivate(uid, geo.RectAround(c, 0.02).Clip(world))
	}
}

// TestContinuousCountPDFMatchesOneShot pins the determinism of
// ContinuousCountPDF: the PDF materialized from the continuous engine's
// per-user probability map must be bit-identical to the one-shot
// PublicRangeCount PDF over the same rectangle, both for a query that
// followed every update incrementally and for one seeded from the region
// index after thousands of users had arrived (and again after a restore,
// whose rebuild seeds from the index too).
func TestContinuousCountPDFMatchesOneShot(t *testing.T) {
	s := newServer(t)
	query := geo.R(0.25, 0.25, 0.75, 0.75)
	early, err := s.RegisterContinuousCount(query)
	if err != nil {
		t.Fatal(err)
	}
	// Users with distinct partial-overlap fractions so each contributes a
	// different probability and accumulation order matters; many regions
	// straddle cells of the region index.
	r := rng.New(11)
	for i := 0; i < 3000; i++ {
		c := geo.Pt(r.Float64(), r.Float64())
		reg := geo.RectAround(c, 0.005+0.05*r.Float64()).Clip(world)
		if err := s.UpdatePrivate(uint64(i+1), reg); err != nil {
			t.Fatal(err)
		}
	}
	late, err := s.RegisterContinuousCount(query)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored := newServer(t)
	if err := restored.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	shot, err := s.PublicRangeCount(PublicRangeCountQuery{Query: query})
	if err != nil {
		t.Fatal(err)
	}
	if shot.Answer.Hi < 100 {
		t.Fatalf("only %d users overlap the query", shot.Answer.Hi)
	}
	for _, c := range []struct {
		name string
		s    *Server
		id   uint64
	}{{"incremental", s, early}, {"seeded", s, late}, {"restored", restored, late}} {
		cont, ok := c.s.ContinuousCountPDF(c.id)
		if !ok {
			t.Fatalf("%s: continuous query vanished", c.name)
		}
		if len(cont.PDF) != len(shot.Answer.PDF) {
			t.Fatalf("%s: PDF lengths differ: continuous %d vs one-shot %d",
				c.name, len(cont.PDF), len(shot.Answer.PDF))
		}
		for k := range cont.PDF {
			if cont.PDF[k] != shot.Answer.PDF[k] {
				t.Fatalf("%s: PDF[%d] differs: continuous %v vs one-shot %v",
					c.name, k, cont.PDF[k], shot.Answer.PDF[k])
			}
		}
		if cont.Expected != shot.Answer.Expected || cont.Lo != shot.Answer.Lo || cont.Hi != shot.Answer.Hi {
			t.Errorf("%s: summary differs: continuous %+v vs one-shot %+v", c.name, cont, shot.Answer)
		}
	}
}

// TestContinuousIndexesMatchRescan drives random registrations, moves and
// removals of both kinds of standing query through user and moving-object
// churn, and checks every maintained answer against a brute-force rescan
// of the test's own copy of the data. Halfway it swaps in a server
// restored from a snapshot, which must rebuild the query indexes and keep
// maintaining the same answers.
func TestContinuousIndexesMatchRescan(t *testing.T) {
	s := newServer(t)
	src := rng.New(57)
	type privQuery struct {
		region geo.Rect
		radius float64
	}
	users := map[uint64]geo.Rect{}
	movers := map[uint64]geo.Point{}
	counts := map[uint64]geo.Rect{}
	privs := map[uint64]privQuery{}
	var lastCount, lastPriv uint64
	rect := func() geo.Rect {
		return geo.RectAround(geo.Pt(src.Float64(), src.Float64()), 0.01+0.15*src.Float64()).Clip(world)
	}
	check := func(step int) {
		t.Helper()
		for id, q := range counts {
			var want ContinuousCountAnswer
			for _, r := range users {
				p := prob.Overlap(r, q)
				want.Expected += p
				if p == 1 {
					want.Lo++
				}
				if p > 0 {
					want.Hi++
				}
			}
			got, ok := s.ContinuousCount(id)
			if !ok || got.Lo != want.Lo || got.Hi != want.Hi || math.Abs(got.Expected-want.Expected) > 1e-9 {
				t.Fatalf("step %d: count query %d = %+v (found %v), rescan %+v", step, id, got, ok, want)
			}
		}
		for id, q := range privs {
			var want []uint64
			for oid, p := range movers {
				if q.region.Expand(q.radius).Contains(p) {
					want = append(want, oid)
				}
			}
			slices.Sort(want)
			objs, ok := s.ContinuousPrivateRange(id)
			got := make([]uint64, len(objs))
			for i, o := range objs {
				got[i] = o.ID
			}
			if !ok || !slices.Equal(got, want) {
				t.Fatalf("step %d: private query %d = %v (found %v), rescan %v", step, id, got, ok, want)
			}
		}
	}
	for step := 0; step < 4000; step++ {
		switch x := src.Float64(); {
		case x < 0.02:
			r := rect()
			id, err := s.RegisterContinuousCount(r)
			if _, dup := counts[id]; err != nil || dup {
				t.Fatalf("step %d: register count = %d, %v (id reused: %v)", step, id, err, dup)
			}
			counts[id], lastCount = r, id
		case x < 0.03:
			id := uint64(src.Intn(int(lastCount)+1)) + 1
			if _, had := counts[id]; s.UnregisterContinuousCount(id) != had {
				t.Fatalf("step %d: unregister count %d disagrees with registration %v", step, id, had)
			}
			delete(counts, id)
		case x < 0.05:
			q := privQuery{rect(), 0.1 * src.Float64()}
			id, err := s.RegisterContinuousPrivateRange(q.region, q.radius)
			if _, dup := privs[id]; err != nil || dup {
				t.Fatalf("step %d: register private = %d, %v (id reused: %v)", step, id, err, dup)
			}
			privs[id], lastPriv = q, id
		case x < 0.06:
			id := uint64(src.Intn(int(lastPriv)+1)) + 1
			if _, had := privs[id]; s.UnregisterContinuousPrivateRange(id) != had {
				t.Fatalf("step %d: unregister private %d disagrees with registration %v", step, id, had)
			}
			delete(privs, id)
		case x < 0.09:
			id := uint64(src.Intn(int(lastPriv)+1)) + 1
			q, had := privs[id]
			q.region = rect()
			if err := s.MoveContinuousPrivateRange(id, q.region); (err == nil) != had {
				t.Fatalf("step %d: move private %d = %v, registered %v", step, id, err, had)
			}
			if had {
				privs[id] = q
			}
		case x < 0.5:
			uid := uint64(src.Intn(60)) + 1
			if src.Float64() < 0.1 {
				s.RemovePrivate(uid)
				delete(users, uid)
			} else {
				r := rect()
				if err := s.UpdatePrivate(uid, r); err != nil {
					t.Fatal(err)
				}
				users[uid] = r
			}
		default:
			oid := uint64(src.Intn(60)) + 1
			if src.Float64() < 0.1 {
				s.RemoveMoving(oid)
				delete(movers, oid)
			} else {
				p := geo.Pt(src.Float64(), src.Float64())
				if err := s.UpdateMoving(oid, p); err != nil {
					t.Fatal(err)
				}
				movers[oid] = p
			}
		}
		if step%200 == 0 {
			check(step)
		}
		if step == 2000 {
			var buf bytes.Buffer
			if err := s.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			s = newServer(t)
			if err := s.Restore(&buf); err != nil {
				t.Fatal(err)
			}
			check(step)
		}
	}
	if len(counts) == 0 || len(privs) == 0 {
		t.Fatalf("degenerate run: %d count and %d private queries standing", len(counts), len(privs))
	}
	check(4000)
}
