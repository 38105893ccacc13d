package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"repro/internal/cloak"
	"repro/internal/geo"
	"repro/internal/privacy"
	"repro/internal/server"
	"repro/internal/stats"
)

// deployment is one set-up of one workload: the booted stack, the city
// loaded into it, and the closed-loop clients that drive it.
type deployment struct {
	sp      spec
	city    *city
	st      *stack
	tap     *tap
	clients []*client

	// acked[id-1] is the exact location user id last reported in an
	// acknowledged update or cloak query, and region[id-1] the cloaked
	// region the anonymizer answered with — what the database tier must now
	// hold for her. Each client writes only its own users' slots; they are
	// read with traffic stopped.
	acked  []geo.Point
	region []geo.Rect

	setupSeconds float64
	heapLiveMB   float64
	closed       bool
}

// logged is one replayable request of the traced window: the generated
// entry plus the region the program answered or was asked with.
type logged struct {
	entry
	region geo.Rect
}

// logCap is how many requests each client logs for the isolation replay.
const logCap = 20000 / clients

// client is one closed-loop caller: it owns one connection to each tier
// and a disjoint slice of the users, and has at most one call in flight.
type client struct {
	idx  int
	d    *deployment
	gen  *generator
	conn *conn

	record    bool
	lat       [numKinds]stats.Latencies // one sample per op (per frame)
	entries   [numKinds]int64           // entries completed
	attempted int64
	failed    int64
	inCall    time.Duration
	wall      time.Duration
	log       []logged
	firstErr  error

	reqs    []cloak.Request
	queries []server.BatchEntry
}

// setUp boots the stack and loads the city: public objects in one frame,
// then every user registered and seeded with one update over the wire.
func setUp(sp spec, c *city, seed uint64, tp *tap) (*deployment, error) {
	t0 := time.Now()
	st, err := bootStack(sp, tp)
	if err != nil {
		return nil, err
	}
	d := &deployment{sp: sp, city: c, st: st, tap: tp,
		acked: make([]geo.Point, sp.users), region: make([]geo.Rect, sp.users)}
	for i := 0; i < clients; i++ {
		cn, err := st.dial()
		if err != nil {
			d.Close()
			return nil, err
		}
		d.clients = append(d.clients, &client{idx: i, d: d, conn: cn, gen: newGenerator(sp, c, seed, i),
			reqs: make([]cloak.Request, sp.frame), queries: make([]server.BatchEntry, sp.frame)})
	}
	if err := d.clients[0].conn.db.LoadStationary(c.objects); err != nil {
		d.Close()
		return nil, fmt.Errorf("load objects: %w", err)
	}
	profile := privacy.Constant(privacy.Requirement{K: sp.k})
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i, cl := range d.clients {
		wg.Add(1)
		go func(i int, cl *client) {
			defer wg.Done()
			g := cl.gen
			// Two passes: the first users are cloaked against a nearly empty
			// city and get the whole world as their region. The second pass
			// re-cloaks everyone against the full population, so the window
			// starts from the state steady traffic converges to.
			for pass := 0; pass < 2; pass++ {
				for u := g.lo; u < g.lo+g.n; u++ {
					id := uint64(u + 1)
					if pass == 0 {
						if err := cl.conn.anon.Register(id, profile); err != nil {
							errs[i] = fmt.Errorf("register user %d: %w", id, err)
							return
						}
					}
					loc := g.jitter(g.homes[u], sp.step)
					res, err := cl.conn.anon.UpdateCtx(context.Background(), id, loc)
					if err != nil {
						errs[i] = fmt.Errorf("seed user %d: %w", id, err)
						return
					}
					d.acked[u], d.region[u] = loc, res.Region
				}
			}
		}(i, cl)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		d.Close()
		return nil, err
	}
	runtime.GC()
	d.setupSeconds = time.Since(t0).Seconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	d.heapLiveMB = float64(ms.HeapAlloc) / (1 << 20)
	return d, nil
}

// Close tears the deployment down; a second call does nothing.
func (d *deployment) Close() {
	if d.closed {
		return
	}
	d.closed = true
	for _, cl := range d.clients {
		cl.conn.Close()
	}
	d.st.Close()
}

// window is what one measured window saw, clients merged.
type window struct {
	seconds   float64 // mean client wall time
	lat       [numKinds]stats.Latencies
	entries   [numKinds]int64
	attempted int64
	failed    int64
	busyShare float64 // share of client wall time spent outside calls
	firstErr  error

	cpu        time.Duration // process user+sys
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
	gcCPUShare float64
}

func (w *window) ops() int64 { return w.entries[opUpdate] + w.entries[opPrivate] + w.entries[opCount] }

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func gcCPUSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// drive runs every client closed-loop for d. Unrecorded driving is the
// warm-up; recorded driving is a measured window.
func (d *deployment) drive(dur time.Duration, record bool) window {
	for _, cl := range d.clients {
		*cl = client{idx: cl.idx, d: d, gen: cl.gen, conn: cl.conn, record: record,
			log: cl.log, reqs: cl.reqs, queries: cl.queries}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, tot0 := gcCPUSeconds()
	cpu0 := processCPU()
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for _, cl := range d.clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			t0 := time.Now()
			for time.Now().Before(deadline) && !d.tap.full() {
				cl.step()
			}
			cl.wall = time.Since(t0)
		}(cl)
	}
	wg.Wait()
	w := window{cpu: processCPU() - cpu0}
	gc1, tot1 := gcCPUSeconds()
	runtime.ReadMemStats(&m1)
	w.mallocs, w.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	w.gcCycles, w.gcPause = m1.NumGC-m0.NumGC, time.Duration(m1.PauseTotalNs-m0.PauseTotalNs)
	if tot1 > tot0 {
		w.gcCPUShare = (gc1 - gc0) / (tot1 - tot0)
	}
	var wall, inCall time.Duration
	for _, cl := range d.clients {
		for k := range cl.lat {
			w.lat[k].Merge(&cl.lat[k])
			w.entries[k] += cl.entries[k]
		}
		w.attempted += cl.attempted
		w.failed += cl.failed
		wall += cl.wall
		inCall += cl.inCall
		if w.firstErr == nil {
			w.firstErr = cl.firstErr
		}
	}
	w.seconds = wall.Seconds() / clients
	w.busyShare = 1 - inCall.Seconds()/wall.Seconds()
	return w
}

// fail counts n failed entries and keeps the first cause for the report.
func (cl *client) fail(n int, err error) {
	cl.failed += int64(n)
	if cl.firstErr == nil {
		cl.firstErr = err
	}
}

// step issues the client's next op, checks every reply against the
// per-reply oracle, and records latency when the window is measured.
func (cl *client) step() {
	ents := cl.gen.next()
	kind := ents[0].kind
	cl.attempted += int64(len(ents))
	tr := cl.d.tap.beginOp(cl.idx)
	t0 := time.Now()
	var err error
	var inCall time.Duration
	switch {
	case len(ents) > 1 && kind == opUpdate:
		inCall, err = cl.batchUpdate(ents, tr)
	case len(ents) > 1:
		inCall, err = cl.batchQuery(ents, tr)
	case kind == opUpdate:
		inCall, err = cl.update(ents[0], tr)
	case kind == opPrivate:
		inCall, err = cl.privateQuery(ents[0], tr)
	default:
		inCall, err = cl.publicCount(ents[0], tr)
	}
	d := time.Since(t0)
	tr.end(rootSpanName(kind))
	if err != nil {
		cl.fail(len(ents), err)
		return
	}
	if cl.record {
		cl.lat[kind].Add(d)
		cl.entries[kind] += int64(len(ents))
		cl.inCall += inCall
	}
}

func rootSpanName(kind opKind) string {
	switch kind {
	case opUpdate:
		return "bench_update"
	case opPrivate:
		return "bench_private_query"
	default:
		return "bench_public_count"
	}
}

// logReplay keeps the request for the isolation replay while the tap is on.
func (cl *client) logReplay(e entry, region geo.Rect) {
	if cl.d.tap != nil && cl.d.tap.on.Load() && len(cl.log) < logCap {
		cl.log = append(cl.log, logged{entry: e, region: region})
	}
}

// checkCloak is invariants I1 and I2 on one cloaking reply.
func (cl *client) checkCloak(e entry, res cloak.Result) error {
	if !res.Region.Contains(e.loc) {
		return fmt.Errorf("I2: region %v of user %d does not contain her location %v", res.Region, e.id, e.loc)
	}
	if res.K < cl.d.sp.k && !res.BestEffort() {
		return fmt.Errorf("I1: user %d got k=%d < %d without a best-effort flag", e.id, res.K, cl.d.sp.k)
	}
	return nil
}

func checkCount(res server.PublicRangeCountResult) error {
	a := res.Answer
	if float64(a.Lo) > a.Expected+1e-9 || a.Expected > float64(a.Hi)+1e-9 {
		return fmt.Errorf("I7: expected %g outside [%d,%d]", a.Expected, a.Lo, a.Hi)
	}
	sum := 0.0
	for _, p := range a.PDF {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("I7: PDF sums to %.12f", sum)
	}
	return nil
}

func (cl *client) update(e entry, tr opTrace) (time.Duration, error) {
	call, t0 := tr.call(noQuery), time.Now()
	res, err := cl.conn.anon.UpdateCtx(context.Background(), e.id, e.loc)
	d := time.Since(t0)
	call.end("bench_call_update")
	if err != nil {
		return d, err
	}
	if err := cl.checkCloak(e, res); err != nil {
		return d, err
	}
	cl.d.acked[e.id-1], cl.d.region[e.id-1] = e.loc, res.Region
	cl.logReplay(e, res.Region)
	return d, nil
}

func (cl *client) privateQuery(e entry, tr opTrace) (time.Duration, error) {
	ctx := context.Background()
	call, t0 := tr.call(noQuery), time.Now()
	res, err := cl.conn.anon.CloakQueryCtx(ctx, e.id, e.loc)
	d := time.Since(t0)
	call.end("bench_call_cloak_query")
	if err != nil {
		return d, err
	}
	if err := cl.checkCloak(e, res); err != nil {
		return d, err
	}
	// A cloak query that misses the region cache forwards its new region
	// like an update does, so it too moves what the database tier holds.
	cl.d.acked[e.id-1], cl.d.region[e.id-1] = e.loc, res.Region
	call, t0 = tr.call(res.Region), time.Now()
	if e.nn {
		var nn server.PrivateNNResult
		nn, err = cl.conn.db.PrivateNNCtx(ctx, server.PrivateNNQuery{Region: res.Region, Class: objectClass})
		d += time.Since(t0)
		call.end("bench_call_private_nn")
		if err == nil && len(nn.Candidates) == 0 {
			err = fmt.Errorf("I6: no NN candidate for region %v", res.Region)
		}
		call = tr.call(noQuery)
		server.RefineNN(e.loc, nn.Candidates)
	} else {
		var cands []server.PublicObject
		cands, err = cl.conn.db.PrivateRangeCtx(ctx, server.PrivateRangeQuery{Region: res.Region, Radius: e.radius, Class: objectClass})
		d += time.Since(t0)
		call.end("bench_call_private_range")
		call = tr.call(noQuery)
		server.RefineRange(e.loc, e.radius, cands)
	}
	call.end("bench_refine")
	if err != nil {
		return d, err
	}
	cl.logReplay(e, res.Region)
	return d, nil
}

func (cl *client) publicCount(e entry, tr opTrace) (time.Duration, error) {
	call, t0 := tr.call(e.rect), time.Now()
	res, err := cl.conn.db.PublicCountCtx(context.Background(), e.rect)
	d := time.Since(t0)
	call.end("bench_call_public_count")
	if err != nil {
		return d, err
	}
	if err := checkCount(res); err != nil {
		return d, err
	}
	cl.logReplay(e, e.rect)
	return d, nil
}

func (cl *client) batchUpdate(ents []entry, tr opTrace) (time.Duration, error) {
	for i, e := range ents {
		cl.reqs[i] = cloak.Request{ID: e.id, Loc: e.loc}
	}
	call, t0 := tr.call(noQuery), time.Now()
	results, err := cl.conn.anon.BatchUpdateCtx(context.Background(), cl.reqs)
	d := time.Since(t0)
	call.end("bench_call_batch_update")
	if err != nil {
		return d, err
	}
	if len(results) != len(ents) {
		return d, fmt.Errorf("batch update: %d results for %d entries", len(results), len(ents))
	}
	for i, e := range ents {
		if results[i] == nil {
			return d, fmt.Errorf("batch update: entry %d (user %d) refused", i, e.id)
		}
		if err := cl.checkCloak(e, *results[i]); err != nil {
			return d, err
		}
		cl.d.acked[e.id-1], cl.d.region[e.id-1] = e.loc, results[i].Region
		cl.logReplay(e, results[i].Region)
	}
	return d, nil
}

// batchEntry turns a private-query or count entry into its wire form;
// region is the cloaked region a private query is asked with.
func batchEntry(e entry, region geo.Rect) server.BatchEntry {
	switch {
	case e.kind == opCount:
		return server.BatchEntry{Kind: server.BatchPublicCount, Count: server.PublicRangeCountQuery{Query: e.rect}}
	case e.nn:
		return server.BatchEntry{Kind: server.BatchPrivateNN, NN: server.PrivateNNQuery{Region: region, Class: objectClass}}
	default:
		return server.BatchEntry{Kind: server.BatchPrivateRange,
			Range: server.PrivateRangeQuery{Region: region, Radius: e.radius, Class: objectClass}}
	}
}

func (cl *client) batchQuery(ents []entry, tr opTrace) (time.Duration, error) {
	for i, e := range ents {
		cl.queries[i] = batchEntry(e, e.rect)
	}
	call, t0 := tr.call(noQuery), time.Now()
	res, err := cl.conn.db.BatchQueryCtx(context.Background(), cl.queries)
	d := time.Since(t0)
	call.end("bench_call_batch_query")
	if err != nil {
		return d, err
	}
	if len(res.Items) != len(ents) {
		return d, fmt.Errorf("batch query: %d results for %d entries", len(res.Items), len(ents))
	}
	call = tr.call(noQuery)
	for i, e := range ents {
		it := res.Items[i]
		switch {
		case it.Err != nil:
			err = it.Err
		case e.kind == opCount:
			err = checkCount(it.Count)
		case e.nn:
			if len(it.NN.Candidates) == 0 {
				err = fmt.Errorf("I6: no NN candidate for region %v", e.rect)
			}
			server.RefineNN(e.loc, it.NN.Candidates)
		default:
			server.RefineRange(e.loc, e.radius, it.Range)
		}
		if err != nil {
			return d, fmt.Errorf("batch query entry %d: %w", i, err)
		}
		cl.logReplay(e, e.rect)
	}
	call.end("bench_refine")
	return d, nil
}
