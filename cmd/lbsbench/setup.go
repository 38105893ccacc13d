package main

import (
	"log"

	"repro/internal/cloak"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/mobility"
	"repro/internal/pyramid"
	"repro/internal/server"
)

// world is the unit square every experiment runs in.
var world = geo.R(0, 0, 1, 1)

// population bundles the two index views of a user population plus the raw
// exact locations (the experiments' ground truth).
type population struct {
	pts []geo.Point
	gi  *grid.Index
	pyr *pyramid.Pyramid
	pop cloak.GridPopulation
}

// must ends the run on a harness error — a failed set-up step or call,
// not a verdict — with exit status 1, as a failed verdict does.
func must(err error) {
	if err != nil {
		log.Fatalf("lbsbench: %v", err)
	}
}

// points generates n seeded user or object locations.
func points(n int, dist mobility.Distribution, seed uint64) []geo.Point {
	pts, err := mobility.GeneratePoints(mobility.PopulationSpec{
		N: n, World: world, Dist: dist, Seed: seed,
	})
	must(err)
	return pts
}

// publicObjects places n public objects of one class uniformly.
func publicObjects(n int, class string, seed uint64) []server.PublicObject {
	objs := make([]server.PublicObject, n)
	for i, p := range points(n, mobility.Uniform, seed) {
		objs[i] = server.PublicObject{ID: uint64(i + 1), Class: class, Loc: p}
	}
	return objs
}

// buildPopulation generates n users and indexes them in both the grid and
// a pyramid of the given height.
func buildPopulation(n int, dist mobility.Distribution, seed uint64, height int) population {
	pts := points(n, dist, seed)
	gi, err := grid.New(world, 64, 64)
	must(err)
	pyr, err := pyramid.New(world, height)
	must(err)
	for i, p := range pts {
		gi.Upsert(uint64(i+1), p)
		must(pyr.Insert(uint64(i+1), p))
	}
	return population{pts: pts, gi: gi, pyr: pyr, pop: cloak.GridPopulation{Index: gi}}
}

// buildServerWithObjects creates a server loaded with uniform public
// objects of class "gas" and returns the object list.
func buildServerWithObjects(nObjs int, seed uint64) (*server.Server, []server.PublicObject) {
	srv, err := server.New(server.Config{World: world})
	must(err)
	objs := publicObjects(nObjs, "gas", seed)
	must(srv.LoadStationary(objs))
	return srv, objs
}

// cloakSamples runs a cloaker over sampled users and returns the regions
// with true locations.
type regionSample struct {
	region geo.Rect
	loc    geo.Point
}

func cloakSamples(c cloak.Cloaker, p population, k, count int) []regionSample {
	out := make([]regionSample, 0, count)
	stride := len(p.pts)/count + 1
	for i := 0; i < len(p.pts) && len(out) < count; i += stride {
		loc := p.pts[i]
		res := c.Cloak(uint64(i+1), loc, reqK(k))
		out = append(out, regionSample{region: res.Region, loc: loc})
	}
	return out
}
