package main

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/anonymizer"
	"repro/internal/cloak"
	"repro/internal/geo"
	"repro/internal/privacy"
	"repro/internal/prob"
	"repro/internal/protocol"
	"repro/internal/pyramid"
	"repro/internal/regidx"
	"repro/internal/router"
	"repro/internal/rtree"
	"repro/internal/server"
)

// The isolation replay feeds the requests logged in the traced window,
// single-goroutine and without TCP, into fresh instances of each layer
// built from the deployment's state at the start of that window. Every
// number is the layer alone on this workload's data: busy time per
// operation and heap allocations per operation, the latter from
// runtime.MemStats deltas with nothing else running.

// replayInput is the traced window's log and the state it started from.
type replayInput struct {
	sp     spec
	city   *city
	loc    []geo.Point // every user's acknowledged location at window start
	region []geo.Rect  // and the region the database tier held for her
	log    []logged
	budget time.Duration // wall-time cap per measured loop
}

// sample is one measured loop.
type sample struct {
	ns, allocs float64 // per call of fn
	n          int
}

// measure calls fn(0..n-1) until done or out of budget and reports the
// mean cost per call. The clock is read every 16 calls so that reading it
// stays well under the cost of the cheapest operation measured.
func measure(budget time.Duration, n int, fn func(i int)) sample {
	if n == 0 {
		return sample{}
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	i := 0
	for i < n {
		fn(i)
		i++
		if i%16 == 0 && time.Since(t0) > budget {
			break
		}
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return sample{ns: float64(el.Nanoseconds()) / float64(i), allocs: float64(m1.Mallocs-m0.Mallocs) / float64(i), n: i}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	return v[len(v)/2]
}

// replay measures every layer and returns the per-layer metrics it owns.
func replay(in replayInput) (map[string]float64, error) {
	m := make(map[string]float64)
	var ups, privs, counts []logged
	for _, l := range in.log {
		switch l.kind {
		case opUpdate:
			ups = append(ups, l)
		case opPrivate:
			privs = append(privs, l)
		default:
			counts = append(counts, l)
		}
	}
	req := privacy.Requirement{K: in.sp.k}

	// protocol: the wire floor — one 40-byte request, one empty reply.
	null, err := protocol.Serve("127.0.0.1:0", func(context.Context, byte, []byte) ([]byte, error) { return nil, nil }, quiet)
	if err != nil {
		return nil, err
	}
	pc, err := protocol.Dial(null.Addr(), protocol.WithCallTimeout(callTimeout))
	if err != nil {
		null.Close()
		return nil, err
	}
	payload := make([]byte, 40)
	var callErr error
	s := measure(in.budget, 1<<20, func(int) {
		if _, err := pc.CallCtx(context.Background(), protocol.MsgStats, payload); err != nil {
			callErr = err
		}
	})
	pc.Close()
	null.Close()
	if callErr != nil {
		return nil, callErr
	}
	m["protocol.rtt_null_us"], m["protocol.rtt_null_allocs"] = s.ns/1e3, s.allocs

	// anonymizer: the daemon's configuration with no forward target.
	newAnon := func() (*anonymizer.Anonymizer, error) {
		a, err := anonymizer.New(anonymizer.Config{World: world, Incremental: true,
			Shards: runtime.GOMAXPROCS(0), BatchWorkers: runtime.GOMAXPROCS(0)})
		if err != nil {
			return nil, err
		}
		profile := privacy.Constant(req)
		for i := range in.loc {
			if err := a.Register(uint64(i+1), profile); err != nil {
				return nil, err
			}
		}
		// Twice, as in set-up: the first pass cloaks the first users
		// against an empty city.
		for pass := 0; pass < 2; pass++ {
			for i, p := range in.loc {
				if _, err := a.Update(uint64(i+1), p); err != nil {
					return nil, err
				}
			}
		}
		return a, nil
	}
	anon, err := newAnon()
	if err != nil {
		return nil, err
	}
	s = measure(in.budget, len(ups), func(i int) { _, callErr = anon.Update(ups[i].id, ups[i].loc) })
	m["anonymizer.update_ns"], m["anonymizer.update_allocs"] = s.ns, s.allocs
	// Batch frames carry regions, not users; their workloads' cloak cost is
	// measured on the update stream's users and locations instead.
	cloaks := privs
	if len(cloaks) == 0 || cloaks[0].id == 0 {
		cloaks = ups
	}
	s = measure(in.budget, len(cloaks), func(i int) { _, callErr = anon.CloakQuery(cloaks[i].id, cloaks[i].loc) })
	m["anonymizer.cloak_query_ns"] = s.ns
	if anon, err = newAnon(); err != nil {
		return nil, err
	}
	frames := make([][]cloak.Request, len(ups)/frameEntries)
	for f := range frames {
		frames[f] = make([]cloak.Request, frameEntries)
		for j := range frames[f] {
			u := ups[f*frameEntries+j]
			frames[f][j] = cloak.Request{ID: u.id, Loc: u.loc}
		}
	}
	s = measure(in.budget, len(frames), func(i int) { anon.BatchUpdate(frames[i]) })
	m["anonymizer.batch_update_ns_per_entry"] = s.ns / frameEntries
	m["anonymizer.batch_update_allocs_per_entry"] = s.allocs / frameEntries
	if callErr != nil {
		return nil, callErr
	}

	// cloak: the incremental quadtree over a pyramid holding the same
	// population. One operation is what a moved user costs the cloaking
	// layer: refresh her pyramid cell, then cloak.
	pyr, err := pyramid.New(world, 10)
	if err != nil {
		return nil, err
	}
	inc := cloak.NewIncremental(&cloak.Quadtree{Pyr: pyr}, func(region geo.Rect, r privacy.Requirement) (int, bool) {
		// A quadtree region is one pyramid cell; its width names the level.
		level := int(math.Round(math.Log2(world.Width() / region.Width())))
		n := pyr.Count(pyr.CellAt(level, region.Center()))
		return n, n >= r.K
	})
	inc.MaxSlack = 8 // the anonymizer's setting
	for i, p := range in.loc {
		pyr.Upsert(uint64(i+1), p)
	}
	for i, p := range in.loc {
		inc.Cloak(uint64(i+1), p, req)
	}
	areas, ks := make([]float64, 0, len(ups)), make([]float64, 0, len(ups))
	s = measure(in.budget, len(ups), func(i int) {
		pyr.Upsert(ups[i].id, ups[i].loc)
		res := inc.Cloak(ups[i].id, ups[i].loc, req)
		areas, ks = append(areas, res.Region.Area()), append(ks, float64(res.K))
	})
	m["cloak.cloak_ns"], m["cloak.cloak_allocs"] = s.ns, s.allocs
	m["cloak.area_p50"], m["cloak.achieved_k_p50"] = median(areas), median(ks)

	// server: one lbsd holding the objects and every user's region.
	newServer := func() (*server.Server, error) {
		srv, err := server.New(server.Config{World: world})
		if err != nil {
			return nil, err
		}
		return srv, srv.LoadStationary(in.city.objects)
	}
	srv, err := newServer()
	if err != nil {
		return nil, err
	}
	for i, r := range in.region {
		if err := srv.UpdatePrivate(uint64(i+1), r); err != nil {
			return nil, err
		}
	}
	nnQuery := func(l logged) server.PrivateNNQuery {
		return server.PrivateNNQuery{Region: l.region, Class: objectClass}
	}
	rangeQuery := func(l logged) server.PrivateRangeQuery {
		return server.PrivateRangeQuery{Region: l.region, Radius: in.sp.radius, Class: objectClass}
	}
	countQuery := func(l logged) server.PublicRangeCountQuery { return server.PublicRangeCountQuery{Query: l.region} }
	var cands, overlaps int
	s = measure(in.budget, len(privs), func(i int) { _, callErr = srv.PrivateNN(nnQuery(privs[i])) })
	m["server.private_nn_ns"], m["server.private_nn_allocs"] = s.ns, s.allocs
	s = measure(in.budget, len(privs), func(i int) {
		var out []server.PublicObject
		out, callErr = srv.PrivateRange(rangeQuery(privs[i]))
		cands += len(out)
	})
	m["server.private_range_ns"], m["server.private_range_allocs"] = s.ns, s.allocs
	m["server.range_candidates_per_query"] = float64(cands) / float64(max(s.n, 1))
	s = measure(in.budget, len(counts), func(i int) {
		var res server.PublicRangeCountResult
		res, callErr = srv.PublicRangeCount(countQuery(counts[i]))
		overlaps += res.NaiveCount
	})
	m["server.public_count_ns"], m["server.public_count_allocs"] = s.ns, s.allocs
	m["server.count_overlaps_per_query"] = float64(overlaps) / float64(max(s.n, 1))
	queries := append(append([]logged(nil), privs...), counts...)
	qframes := make([][]server.BatchEntry, len(queries)/frameEntries)
	for f := range qframes {
		qframes[f] = make([]server.BatchEntry, frameEntries)
		for j := range qframes[f] {
			l := queries[f*frameEntries+j]
			qframes[f][j] = batchEntry(l.entry, l.region)
		}
	}
	s = measure(in.budget, len(qframes), func(i int) { srv.BatchQuery(qframes[i]) })
	m["server.batch_query_ns_per_entry"] = s.ns / frameEntries
	m["server.batch_query_allocs_per_entry"] = s.allocs / frameEntries
	s = measure(in.budget, len(ups), func(i int) { callErr = srv.UpdatePrivate(ups[i].id, ups[i].region) })
	m["server.update_private_ns"], m["server.update_private_allocs"] = s.ns, s.allocs
	if callErr != nil {
		return nil, callErr
	}

	// rtree, regidx, prob: the indices and the PDF kernel under the server.
	items := make([]rtree.Item, len(in.city.objects))
	for i, o := range in.city.objects {
		items[i] = rtree.Item{ID: o.ID, Loc: o.Loc}
	}
	t0 := time.Now()
	tree := rtree.BulkLoad(items)
	m["rtree.bulkload_s"] = time.Since(t0).Seconds()
	var dst []rtree.Item
	s = measure(in.budget, len(privs), func(i int) { dst = tree.Search(privs[i].region.Expand(in.sp.radius), dst[:0]) })
	m["rtree.search_ns"] = s.ns
	s = measure(in.budget, len(privs), func(i int) { dst, _, _ = tree.MinMaxCandidates(privs[i].region, nil, dst[:0]) })
	m["rtree.nn_ns"] = s.ns
	ridx, err := regidx.New(world, 32, 32) // the server's resolution
	if err != nil {
		return nil, err
	}
	for i, r := range in.region {
		if err := ridx.Upsert(uint64(i+1), r); err != nil {
			return nil, err
		}
	}
	var ids []uint64
	hits := 0
	s = measure(in.budget, len(counts), func(i int) {
		ids = ridx.Query(counts[i].region, ids[:0])
		hits += len(ids)
	})
	m["regidx.query_ns"] = s.ns
	m["regidx.hits_per_query"] = float64(hits) / float64(max(s.n, 1))
	vectors := make([][]float64, min(len(counts), 512))
	for i := range vectors {
		pairs, err := srv.PublicCountProbs(countQuery(counts[i]))
		if err != nil {
			return nil, err
		}
		for _, up := range pairs {
			vectors[i] = append(vectors[i], up.P)
		}
		sort.Float64s(vectors[i])
	}
	s = measure(in.budget, len(vectors), func(i int) { prob.RangeCount(vectors[i]) })
	m["prob.range_count_ns"] = s.ns

	// router: the routing tier over four in-process shards, no TCP.
	const replayShards = 4
	shards := make([]router.Shard, replayShards)
	for i := range shards {
		shardSrv, err := server.New(server.Config{World: world})
		if err != nil {
			return nil, err
		}
		shards[i] = shardAdapter{shardSrv}
	}
	rt, err := router.New(router.Config{World: world, Shards: shards})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if err := rt.LoadStationaryCtx(ctx, in.city.objects); err != nil {
		return nil, err
	}
	for i, r := range in.region {
		if err := rt.UpdatePrivateCtx(ctx, uint64(i+1), r); err != nil {
			return nil, err
		}
	}
	s = measure(in.budget, len(privs), func(i int) { _, callErr = rt.PrivateNNCtx(ctx, nnQuery(privs[i])) })
	m["router.private_nn_ns"] = s.ns
	s = measure(in.budget, len(counts), func(i int) { _, callErr = rt.PublicCountCtx(ctx, countQuery(counts[i])) })
	m["router.public_count_ns"] = s.ns
	s = measure(in.budget, len(ups), func(i int) { callErr = rt.UpdatePrivateCtx(ctx, ups[i].id, ups[i].region) })
	m["router.update_ns"] = s.ns
	return m, callErr
}

// shardAdapter serves router.Shard from an in-process server. The replay
// issues bulk loads, single updates and single queries only, so the batch
// and moving-object calls report themselves unused.
type shardAdapter struct{ srv *server.Server }

var errUnusedShardCall = errors.New("benchmark: shard call outside the replay's repertoire")

func (a shardAdapter) UpdatePrivateCtx(_ context.Context, id uint64, region geo.Rect) error {
	return a.srv.UpdatePrivate(id, region)
}
func (a shardAdapter) RemovePrivateCtx(_ context.Context, id uint64) error {
	a.srv.RemovePrivate(id)
	return nil
}
func (a shardAdapter) UpdateMovingCtx(context.Context, uint64, geo.Point) error {
	return errUnusedShardCall
}
func (a shardAdapter) RemoveMovingCtx(context.Context, uint64) (bool, error) {
	return false, errUnusedShardCall
}
func (a shardAdapter) LoadStationaryCtx(_ context.Context, objs []server.PublicObject) error {
	return a.srv.LoadStationary(objs)
}
func (a shardAdapter) PrivateRangeCtx(_ context.Context, q server.PrivateRangeQuery) ([]server.PublicObject, error) {
	return a.srv.PrivateRange(q)
}
func (a shardAdapter) NNPartsCtx(_ context.Context, q server.PrivateNNQuery) (server.NNParts, error) {
	return a.srv.PrivateNNParts(q)
}
func (a shardAdapter) CountProbsCtx(_ context.Context, q server.PublicRangeCountQuery) ([]server.UserProb, error) {
	return a.srv.PublicCountProbs(q)
}
func (a shardAdapter) ShardBatchCtx(context.Context, []router.SubQuery) ([]router.SubResult, error) {
	return nil, errUnusedShardCall
}
func (a shardAdapter) StatsCtx(context.Context) (int, int, error) {
	return a.srv.StationaryCount(), a.srv.PrivateUserCount(), nil
}
