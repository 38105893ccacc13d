package repro

// One benchmark per experiment in EXPERIMENTS.md (E1–E11) plus the
// ablations called out in DESIGN.md §6. `go test -bench=. -benchmem`
// regenerates the performance side of every table; cmd/lbsbench prints the
// accuracy/leakage side.

import (
	"testing"

	"repro/internal/anonymizer"
	"repro/internal/cloak"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/mobility"
	"repro/internal/privacy"
	"repro/internal/prob"
	"repro/internal/protocol"
	"repro/internal/pyramid"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/stack"
)

var world = geo.R(0, 0, 1, 1)

func benchPoints(b *testing.B, n int, seed uint64) []geo.Point {
	b.Helper()
	pts, err := mobility.GeneratePoints(mobility.PopulationSpec{
		N: n, World: world, Dist: mobility.Uniform, Seed: seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	return pts
}

func benchIndexes(b *testing.B, n int, height int) (cloak.GridPopulation, *pyramid.Pyramid, []geo.Point) {
	b.Helper()
	pts := benchPoints(b, n, 1)
	gi, err := grid.New(world, 64, 64)
	if err != nil {
		b.Fatal(err)
	}
	pyr, err := pyramid.New(world, height)
	if err != nil {
		b.Fatal(err)
	}
	for i, p := range pts {
		gi.Upsert(uint64(i+1), p)
		if err := pyr.Insert(uint64(i+1), p); err != nil {
			b.Fatal(err)
		}
	}
	return cloak.GridPopulation{Index: gi}, pyr, pts
}

// --- E1: profile resolution ---

func BenchmarkE1ProfileLookup(b *testing.B) {
	p := privacy.PaperExample()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.AtMinute(i % 1440); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E2/E3: cloaking algorithms ---

func benchCloaker(b *testing.B, mk func(pop cloak.GridPopulation, pyr *pyramid.Pyramid) cloak.Cloaker) {
	for _, k := range []int{10, 100} {
		b.Run("k="+itoa(k), func(b *testing.B) {
			pop, pyr, pts := benchIndexes(b, 10000, 10)
			c := mk(pop, pyr)
			req := privacy.Requirement{K: k}
			src := rng.New(7)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := uint64(src.Intn(len(pts))) + 1
				c.Cloak(id, pts[id-1], req)
			}
		})
	}
}

func BenchmarkE2CloakNaive(b *testing.B) {
	benchCloaker(b, func(pop cloak.GridPopulation, _ *pyramid.Pyramid) cloak.Cloaker {
		return &cloak.Naive{Pop: pop}
	})
}

func BenchmarkE2CloakMBR(b *testing.B) {
	benchCloaker(b, func(pop cloak.GridPopulation, _ *pyramid.Pyramid) cloak.Cloaker {
		return &cloak.MBR{Pop: pop}
	})
}

func BenchmarkE3CloakQuadtree(b *testing.B) {
	benchCloaker(b, func(_ cloak.GridPopulation, pyr *pyramid.Pyramid) cloak.Cloaker {
		return &cloak.Quadtree{Pyr: pyr}
	})
}

func BenchmarkE3CloakGrid(b *testing.B) {
	benchCloaker(b, func(_ cloak.GridPopulation, pyr *pyramid.Pyramid) cloak.Cloaker {
		return &cloak.Grid{Pyr: pyr, Level: 6}
	})
}

func BenchmarkE3CloakGridMultiLevel(b *testing.B) {
	benchCloaker(b, func(_ cloak.GridPopulation, pyr *pyramid.Pyramid) cloak.Cloaker {
		return &cloak.Grid{Pyr: pyr, Level: 4, MultiLevel: true}
	})
}

// --- E4/E5: private queries over public data ---

func benchPrivateServer(b *testing.B, nObjs int) (*server.Server, []geo.Rect) {
	b.Helper()
	srv, err := server.New(server.Config{World: world})
	if err != nil {
		b.Fatal(err)
	}
	pts := benchPoints(b, nObjs, 2)
	objs := make([]server.PublicObject, len(pts))
	for i, p := range pts {
		objs[i] = server.PublicObject{ID: uint64(i + 1), Class: "gas", Loc: p}
	}
	if err := srv.LoadStationary(objs); err != nil {
		b.Fatal(err)
	}
	// Query regions from a quadtree cloaker at k=50.
	_, pyr, userPts := benchIndexes(b, 10000, 10)
	q := &cloak.Quadtree{Pyr: pyr}
	regions := make([]geo.Rect, 200)
	for i := range regions {
		uid := uint64(i*37 + 1)
		regions[i] = q.Cloak(uid, userPts[uid-1], privacy.Requirement{K: 50}).Region
	}
	return srv, regions
}

func BenchmarkE4PrivateRange(b *testing.B) {
	srv, regions := benchPrivateServer(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := server.PrivateRangeQuery{Region: regions[i%len(regions)], Radius: 0.05}
		if _, err := srv.PrivateRange(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4PrivateRangeMBRMode(b *testing.B) {
	srv, regions := benchPrivateServer(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := server.PrivateRangeQuery{
			Region: regions[i%len(regions)], Radius: 0.05, Mode: server.RangeMBR,
		}
		if _, err := srv.PrivateRange(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5PrivateNN(b *testing.B) {
	srv, regions := benchPrivateServer(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := server.PrivateNNQuery{Region: regions[i%len(regions)]}
		if _, err := srv.PrivateNN(q); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6/E7: public queries over private data ---

func benchCloakedServer(b *testing.B, n, k int) *server.Server {
	b.Helper()
	_, pyr, pts := benchIndexes(b, n, 10)
	srv, err := server.New(server.Config{World: world})
	if err != nil {
		b.Fatal(err)
	}
	q := &cloak.Quadtree{Pyr: pyr}
	for i, loc := range pts {
		res := q.Cloak(uint64(i+1), loc, privacy.Requirement{K: k})
		if err := srv.UpdatePrivate(uint64(i+1), res.Region); err != nil {
			b.Fatal(err)
		}
	}
	return srv
}

func BenchmarkE6PublicRangeCount(b *testing.B) {
	srv := benchCloakedServer(b, 10000, 50)
	q := server.PublicRangeCountQuery{Query: geo.R(0.4, 0.4, 0.6, 0.6)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.PublicRangeCount(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7PublicNN(b *testing.B) {
	srv := benchCloakedServer(b, 10000, 50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := server.PublicNNQuery{From: geo.Pt(0.5, 0.5), Samples: 1000, Seed: uint64(i + 1)}
		if _, err := srv.PublicNN(q); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E8/E9: incremental and shared execution ---

// benchUpdates places 10,000 users with update, then times steady-state
// micro-movements of random users through it.
func benchUpdates(b *testing.B, update func(id uint64, p geo.Point) error) {
	pts := benchPoints(b, 10000, 3)
	for i, p := range pts {
		if err := update(uint64(i+1), p); err != nil {
			b.Fatal(err)
		}
	}
	src := rng.New(5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(src.Intn(len(pts))) + 1
		p := world.ClampPoint(geo.Pt(
			pts[id-1].X+src.Range(-0.001, 0.001),
			pts[id-1].Y+src.Range(-0.001, 0.001),
		))
		if err := update(id, p); err != nil {
			b.Fatal(err)
		}
	}
}

// benchQuadtreeUpdates streams the updates through an anonymizer.
func benchQuadtreeUpdates(b *testing.B, incremental bool) {
	anon, err := anonymizer.New(anonymizer.Config{World: world, Incremental: incremental})
	if err != nil {
		b.Fatal(err)
	}
	prof := privacy.Constant(privacy.Requirement{K: 50})
	for id := uint64(1); id <= 10000; id++ {
		anon.Register(id, prof)
	}
	benchUpdates(b, func(id uint64, p geo.Point) error {
		_, err := anon.Update(id, p)
		return err
	})
}

// benchNaiveUpdates moves each user in a 64×64 grid of exact positions and
// cloaks her with cloak.Naive, which the anonymizer does not offer.
func benchNaiveUpdates(b *testing.B, incremental bool) {
	pop, err := grid.New(world, 64, 64)
	if err != nil {
		b.Fatal(err)
	}
	var c cloak.Cloaker = &cloak.Naive{Pop: cloak.GridPopulation{Index: pop}}
	if incremental {
		ic := cloak.NewIncremental(c, func(region geo.Rect, req privacy.Requirement) (int, bool) {
			n := pop.Count(region)
			return n, n >= req.K
		})
		ic.MaxSlack = 8
		c = ic
	}
	req := privacy.Requirement{K: 50}
	benchUpdates(b, func(id uint64, p geo.Point) error {
		pop.Upsert(id, p)
		c.Cloak(id, p, req)
		return nil
	})
}

func BenchmarkE8RecomputeQuadtree(b *testing.B) {
	benchQuadtreeUpdates(b, false)
}

func BenchmarkE8IncrementalQuadtree(b *testing.B) {
	benchQuadtreeUpdates(b, true)
}

func BenchmarkE8RecomputeNaive(b *testing.B) {
	benchNaiveUpdates(b, false)
}

func BenchmarkE8IncrementalNaive(b *testing.B) {
	benchNaiveUpdates(b, true)
}

func BenchmarkE9SharedCloak(b *testing.B) {
	_, pyr, pts := benchIndexes(b, 10000, 7)
	bq := &cloak.Batch{Pyr: pyr, Inner: &cloak.Quadtree{Pyr: pyr}}
	reqs := make([]cloak.Request, len(pts))
	for i, loc := range pts {
		reqs[i] = cloak.Request{ID: uint64(i + 1), Loc: loc, Req: privacy.Requirement{K: 50}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bq.CloakAll(reqs, 1)
	}
}

func BenchmarkE9ContinuousQueries(b *testing.B) {
	srv, err := server.New(server.Config{World: world})
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(9)
	for i := 0; i < 100; i++ {
		c := geo.Pt(src.Float64(), src.Float64())
		if _, err := srv.RegisterContinuousCount(geo.RectAround(c, 0.05).Clip(world)); err != nil {
			b.Fatal(err)
		}
	}
	pts := benchPoints(b, 10000, 4)
	for i, p := range pts {
		srv.UpdatePrivate(uint64(i+1), geo.RectAround(p, 0.02).Clip(world))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(i%len(pts)) + 1
		srv.UpdatePrivate(id, geo.RectAround(pts[id-1], 0.02).Clip(world))
	}
}

// --- E11: networked three-tier deployment ---

func BenchmarkE11EndToEndUpdate(b *testing.B) {
	st, err := stack.Boot(stack.Topology{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	user, err := protocol.DialAnonymizer(st.AnonAddr())
	if err != nil {
		b.Fatal(err)
	}
	defer user.Close()

	pts := benchPoints(b, 1000, 5)
	prof := privacy.Constant(privacy.Requirement{K: 10})
	for i, p := range pts {
		user.Register(uint64(i+1), prof)
		if _, err := user.Update(uint64(i+1), p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(i%len(pts)) + 1
		if _, err := user.Update(id, pts[id-1]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §6) ---

func BenchmarkAblationPyramidDepth(b *testing.B) {
	for _, h := range []int{6, 8, 10, 12} {
		b.Run("height="+itoa(h), func(b *testing.B) {
			_, pyr, pts := benchIndexes(b, 10000, h)
			q := &cloak.Quadtree{Pyr: pyr}
			req := privacy.Requirement{K: 50}
			src := rng.New(11)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := uint64(src.Intn(len(pts))) + 1
				q.Cloak(id, pts[id-1], req)
			}
		})
	}
}

func BenchmarkAblationPDFExactDP(b *testing.B) {
	probs := make([]float64, 200)
	src := rng.New(13)
	for i := range probs {
		probs[i] = src.Float64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prob.PoissonBinomial(probs)
	}
}

func BenchmarkAblationNNMonteCarlo(b *testing.B) {
	for _, samples := range []int{100, 1000, 10000} {
		b.Run("samples="+itoa(samples), func(b *testing.B) {
			cands := make([]prob.Candidate, 30)
			src := rng.New(17)
			for i := range cands {
				c := geo.Pt(src.Float64(), src.Float64())
				cands[i] = prob.Candidate{ID: uint64(i + 1), Region: geo.RectAround(c, 0.05).Clip(world)}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				prob.NNProbabilities(geo.Pt(0.5, 0.5), cands, samples, uint64(i+1))
			}
		})
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
