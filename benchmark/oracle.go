package main

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/geo"
	"repro/internal/rng"
	"repro/internal/server"
)

// oracleQueries is how many queries of each kind the brute-force oracle
// checks after a window.
const oracleQueries = 256

// bruteForce checks, with traffic stopped, that the deployment's answers
// agree with a reference that scans everything: the client-side refinement
// run over the generator's whole object list for private queries (I5, I6),
// and the exact locations of every user's last acknowledged update for
// public counts (I7). It goes over
// the wire like any client. The result is the number of queries checked
// and the failures found.
func (d *deployment) bruteForce(seed uint64) (checked int, failures []error) {
	ctx := context.Background()
	src := rng.New(seed ^ 0x04ac1e)
	cn := d.clients[0].conn
	failf := func(format string, args ...interface{}) {
		failures = append(failures, fmt.Errorf(format, args...))
	}
	for i := 0; i < oracleQueries; i++ {
		// Private queries: cloak the user's acknowledged location, ask the
		// database with the region, refine — and compare with a scan.
		u := src.Intn(d.sp.users)
		loc := d.acked[u]
		checked += 2
		truth, _ := server.RefineNN(loc, d.city.objects)
		res, err := cn.anon.CloakQueryCtx(ctx, uint64(u+1), loc)
		if err != nil {
			failf("oracle: cloak user %d: %w", u+1, err)
			continue
		}
		nn, err := cn.db.PrivateNNCtx(ctx, server.PrivateNNQuery{Region: res.Region, Class: objectClass})
		if err != nil {
			failf("oracle: private NN: %w", err)
		} else if got, _ := server.RefineNN(loc, nn.Candidates); got != truth {
			failf("I6: NN of %v refined to object %d, a scan finds %d", loc, got.ID, truth.ID)
		}
		cands, err := cn.db.PrivateRangeCtx(ctx, server.PrivateRangeQuery{Region: res.Region, Radius: d.sp.radius, Class: objectClass})
		if err != nil {
			failf("oracle: private range: %w", err)
		} else if got, want := server.RefineRange(loc, d.sp.radius, cands), server.RefineRange(loc, d.sp.radius, d.city.objects); !slices.Equal(got, want) {
			failf("I5: range around %v refined to %d objects, a scan finds %d", loc, len(got), len(want))
		}
	}
	for i := 0; i < oracleQueries; i++ {
		q := geo.RectAround(geo.Pt(src.Float64(), src.Float64()), d.sp.countHalf).Clip(world)
		checked++
		res, err := cn.db.PublicCountCtx(ctx, q)
		if err != nil {
			failf("oracle: public count: %w", err)
			continue
		}
		truth := 0
		for _, p := range d.acked {
			if q.Contains(p) {
				truth++
			}
		}
		if truth < res.Answer.Lo || truth > res.Answer.Hi {
			failf("I7: %d users are inside %v, the answer brackets [%d,%d]", truth, q, res.Answer.Lo, res.Answer.Hi)
		}
	}
	return checked, failures
}
