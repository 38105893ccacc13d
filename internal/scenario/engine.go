package scenario

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cloak"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/obs"
	"repro/internal/privacy"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/stack"
	"repro/internal/trace"
)

// Env is the live harness a Scenario drives: the target deployment, the
// streaming city, the persistent worker connections, and the accounting
// that feeds SLO evaluation.
type Env struct {
	cfg    Config
	sc     Scenario
	st     *stack.Stack // nil against a running deployment
	gen    *mobility.Stream
	tracer *trace.Tracer // the client's, with Config.Trace

	// Control plane: metric, residency and span-ring reads.
	ctrl   *protocol.AnonymizerClient
	ctrlDB *protocol.DatabaseClient

	tick     atomic.Uint64
	stopTick chan struct{}

	drivers []*driver

	// acked marks users whose update was acknowledged at least once — the
	// bitmap side of the acked-vs-resident consistency check. One flag per
	// user is the harness's only O(users) state.
	acked            []atomic.Bool
	ops, errs, sheds atomic.Uint64

	// Outermost rank: the scenario stack calls into every other tier and
	// must never be acquired from inside one of them.
	mu       sync.Mutex //lint:lock stack@3
	recovery time.Duration

	baseDrops, baseKMissed float64
}

// driver is one closed-loop worker's connection pair and RNG.
type driver struct {
	anon *protocol.AnonymizerClient
	db   *protocol.DatabaseClient
	src  *rng.Source
}

// callTimeout is the deadline on every harness client call.
const callTimeout = 2 * time.Second

// tickInterval is how often the streamed city advances one tick — wall
// time, deliberately unscaled so movement speed per second is constant
// across -scale settings.
const tickInterval = 50 * time.Millisecond

// scenarioSeed mixes the scenario name into the run seed so every
// scenario sees a distinct but reproducible city and workload.
func scenarioSeed(seed uint64, name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed ^ h.Sum64()
}

// Run executes one scenario end to end: boot (unless cfg addresses a
// running deployment), seed, drive, drain, evaluate. The error return
// covers harness failures (cannot bind, cannot seed, a scenario the
// target cannot host); SLO violations land in the Result instead.
func Run(sc Scenario, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{Scenario: sc.Name}
	t0 := time.Now()

	var st *stack.Stack
	switch {
	case (cfg.Anon == "") != (cfg.DB == ""):
		return res, fmt.Errorf("scenario %s: a running deployment needs both its anonymizer and database addresses", sc.Name)
	case cfg.Anon != "" && (sc.Levers || sc.Tune != nil || sc.Link != nil || cfg.Shards > 1):
		return res, fmt.Errorf("scenario %s needs the booted stack (levers, a tuned topology, a faulty link or shards): run it without a target", sc.Name)
	case cfg.Anon == "":
		if sc.Tune != nil {
			sc.Tune(&cfg)
		}
		topo := stack.Topology{
			ForwardQueue:   cfg.ForwardQueue,
			NoBackpressure: !cfg.Admission,
			Trace:          cfg.Trace,
			Logf:           cfg.Logf,
		}
		if cfg.Shards > 1 {
			topo.Shards = cfg.Shards
		}
		if cfg.Admission {
			topo.MaxInflight = cfg.MaxInflight
		}
		if sc.Link != nil {
			topo.Dialer = faults.Dialer(sc.Link)
		}
		var err error
		if st, err = stack.Boot(topo); err != nil {
			return res, fmt.Errorf("scenario %s: stack: %w", sc.Name, err)
		}
		defer st.Close()
		cfg.Anon, cfg.DB = st.AnonAddr(), st.DBAddr()
	}

	gen, err := mobility.NewStream(mobility.StreamSpec{
		World: stack.World, Seed: scenarioSeed(cfg.Seed, sc.Name), NumClusters: 24,
	})
	if err != nil {
		return res, err
	}
	e := &Env{
		cfg: cfg, sc: sc, st: st, gen: gen,
		stopTick: make(chan struct{}),
		acked:    make([]atomic.Bool, cfg.Users+1),
	}
	if cfg.Trace {
		e.tracer = trace.New(trace.Config{Process: "client", Sample: 1})
	}
	defer e.teardown()

	if e.ctrl, err = protocol.DialAnonymizer(cfg.Anon, protocol.WithCallTimeout(callTimeout)); err != nil {
		return res, err
	}
	if e.ctrlDB, err = protocol.DialDatabase(cfg.DB, protocol.WithCallTimeout(callTimeout)); err != nil {
		return res, err
	}
	dialOpts := []protocol.DialOption{
		protocol.WithCallTimeout(callTimeout),
		protocol.WithRetries(1),
		protocol.WithRetryBackoff(5*time.Millisecond, 100*time.Millisecond),
		protocol.WithClientTracing(e.tracer),
	}
	for w := 0; w < cfg.Workers; w++ {
		ac, err := protocol.DialAnonymizer(cfg.Anon, dialOpts...)
		if err != nil {
			return res, err
		}
		dc, err := protocol.DialDatabase(cfg.DB, dialOpts...)
		if err != nil {
			ac.Close()
			return res, err
		}
		e.drivers = append(e.drivers, &driver{
			anon: ac, db: dc,
			src: rng.New(scenarioSeed(cfg.Seed, sc.Name) + uint64(w)*7919),
		})
	}

	if err := e.seed(); err != nil {
		return res, fmt.Errorf("scenario %s: seed: %w", sc.Name, err)
	}

	// Baselines after seeding: the first k-1 users of a fresh city cannot
	// have k neighbors, so seed-phase k misses are warmup, not violations.
	series, err := e.ctrl.Metrics()
	if err != nil {
		return res, err
	}
	e.baseDrops = metricVal(series, "anon_forward_queue_drops_total")
	e.baseKMissed = metricVal(series, "anon_cloak_k_missed_total")

	go e.runTicker()
	if err := sc.Run(e); err != nil {
		return res, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	close(e.stopTick)

	e.evaluate(&res)
	if e.tracer != nil {
		anon, aerr := e.ctrl.Traces()
		db, derr := e.ctrlDB.Traces()
		if err := errors.Join(aerr, derr); err != nil {
			e.Log("daemon span rings unavailable (started without -trace-sample?): %v", err)
		}
		res.Traces = [][]trace.SpanRecord{e.tracer.Snapshot(), anon, db}
	}
	res.Wall = time.Since(t0)
	return res, nil
}

func (e *Env) teardown() {
	if e.ctrl != nil {
		e.ctrl.Close()
	}
	if e.ctrlDB != nil {
		e.ctrlDB.Close()
	}
	for _, d := range e.drivers {
		d.anon.Close()
		d.db.Close()
	}
}

func (e *Env) runTicker() {
	t := time.NewTicker(tickInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			e.tick.Add(1)
		case <-e.stopTick:
			return
		}
	}
}

// Log writes a progress line through the run's logger.
func (e *Env) Log(format string, args ...interface{}) { e.cfg.Logf(format, args...) }

// scaled applies the run's time-scale to a phase duration.
func (e *Env) scaled(d time.Duration) time.Duration {
	return time.Duration(float64(d) * e.cfg.Scale)
}

// seed loads the public objects, registers every user, and streams one
// full round of location updates through the pipeline so the database
// holds the whole population before any adversity starts.
func (e *Env) seed() error {
	objPts, err := mobility.GeneratePoints(mobility.PopulationSpec{
		N: e.cfg.Objects, World: stack.World, Dist: mobility.Uniform,
		Seed: scenarioSeed(e.cfg.Seed, e.sc.Name) + 1,
	})
	if err != nil {
		return err
	}
	objs := make([]server.PublicObject, len(objPts))
	for i, p := range objPts {
		objs[i] = server.PublicObject{ID: uint64(i + 1), Class: "poi", Loc: p}
	}
	if err := e.ctrlDB.LoadStationary(objs); err != nil {
		return err
	}

	t0 := time.Now()
	prof := privacy.Constant(privacy.Requirement{K: e.cfg.K})
	if err := e.eachUserShard(func(d *driver, from, to uint64) error {
		for id := from; id <= to; id++ {
			if err := e.overloadRetry(func() error {
				err := d.anon.Register(id, prof)
				if err != nil && !errors.Is(err, protocol.ErrOverloaded) && d.anon.UpdateProfile(id, prof) == nil {
					return nil // registered by an earlier run against the same deployment
				}
				return err
			}); err != nil {
				return fmt.Errorf("register %d: %w", id, err)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := e.eachUserShard(func(d *driver, from, to uint64) error {
		// Small chunks keep each wire call far inside its deadline even
		// when a scenario's fault plan throttles the shared forward link
		// phase 3 of the batch pipeline drains through.
		const chunk = 256
		for lo := from; lo <= to; lo += chunk {
			hi := min(lo+chunk-1, to)
			reqs := make([]cloak.Request, 0, hi-lo+1)
			for id := lo; id <= hi; id++ {
				reqs = append(reqs, cloak.Request{ID: id, Loc: e.gen.Pos(id, 0, nil)})
			}
			var results []*cloak.Result
			if err := e.overloadRetry(func() error {
				var err error
				results, err = d.anon.BatchUpdate(reqs)
				return err
			}); err != nil {
				return fmt.Errorf("seed batch at %d: %w", lo, err)
			}
			for i, r := range results {
				if r != nil {
					e.acked[reqs[i].ID].Store(true)
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := e.waitDrain(60 * time.Second); err != nil {
		return err
	}
	// At least: a deployment an earlier run seeded may hold more users.
	if _, got, err := e.ctrlDB.Stats(); err != nil {
		return err
	} else if got < e.cfg.Users {
		return fmt.Errorf("database holds %d users after seeding, want %d", got, e.cfg.Users)
	}
	e.Log("seeded %d users + %d objects in %v", e.cfg.Users, e.cfg.Objects,
		time.Since(t0).Round(time.Millisecond))
	return nil
}

// overloadRetry runs fn until it stops answering a typed shed — seeding
// and control-plane sweeps must make progress even under a deliberately
// tiny admission budget, and a shed's contract is "back off and retry".
func (e *Env) overloadRetry(fn func() error) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		err := fn()
		if err == nil || !errors.Is(err, protocol.ErrOverloaded) {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("still overloaded after 30s: %w", err)
		}
		e.sheds.Add(1)
		time.Sleep(2 * time.Millisecond)
	}
}

// eachUserShard fans a contiguous id-range task out over the worker
// connections and collects the first error.
func (e *Env) eachUserShard(fn func(d *driver, from, to uint64) error) error {
	var wg sync.WaitGroup
	errc := make(chan error, len(e.drivers))
	per := (e.cfg.Users + len(e.drivers) - 1) / len(e.drivers)
	for w, d := range e.drivers {
		from := uint64(w*per) + 1
		to := uint64((w + 1) * per)
		if to > uint64(e.cfg.Users) {
			to = uint64(e.cfg.Users)
		}
		if from > to {
			continue
		}
		wg.Add(1)
		go func(d *driver, from, to uint64) {
			defer wg.Done()
			if err := fn(d, from, to); err != nil {
				errc <- err
			}
		}(d, from, to)
	}
	wg.Wait()
	select {
	case err := <-errc:
		return err
	default:
		return nil
	}
}

// Drive runs closed-loop phases one after another across all workers.
func (e *Env) Drive(phases ...Phase) {
	for _, ph := range phases {
		dur := e.scaled(ph.Dur)
		e.Log("phase %-14s %v (query%%=%d count%%=%d hotspot=%v)", ph.Name, dur.Round(time.Millisecond), ph.QueryPct, ph.CountPct, ph.Hot != nil)
		deadline := time.Now().Add(dur)
		var wg sync.WaitGroup
		for _, d := range e.drivers {
			wg.Add(1)
			go func(d *driver) {
				defer wg.Done()
				e.driveWorker(d, ph, deadline)
			}(d)
		}
		wg.Wait()
	}
}

func (e *Env) driveWorker(d *driver, ph Phase, deadline time.Time) {
	for time.Now().Before(deadline) {
		tick := e.tick.Load()
		r := d.src.Intn(100)
		id := uint64(d.src.Intn(e.cfg.Users)) + 1
		loc := e.gen.Pos(id, tick, ph.Hot)
		switch {
		case r < ph.QueryPct:
			ctx, root := spanCtx(e.tracer.StartRoot("soak_private_query"))
			res, err := d.anon.CloakQueryCtx(ctx, id, loc)
			if err == nil {
				var nn server.PrivateNNResult
				if nn, err = d.db.PrivateNNCtx(ctx, server.PrivateNNQuery{Region: res.Region, Class: "poi"}); err == nil {
					server.RefineNN(loc, nn.Candidates)
				}
			}
			root.End()
			e.account(err, ph, 1)
		case r < ph.QueryPct+ph.CountPct:
			ctx, root := spanCtx(e.tracer.StartRoot("soak_public_count"))
			c := geo.Pt(d.src.Range(0.1, 0.9), d.src.Range(0.1, 0.9))
			_, err := d.db.PublicCountCtx(ctx, geo.RectAround(c, 0.1).Clip(stack.World))
			root.End()
			e.account(err, ph, 1)
		case e.cfg.Batch == 1:
			ctx, root := spanCtx(e.tracer.StartRoot("soak_update"))
			_, err := d.anon.UpdateCtx(ctx, id, loc)
			root.End()
			if err == nil {
				e.acked[id].Store(true)
			}
			e.account(err, ph, 1)
		default:
			reqs := make([]cloak.Request, e.cfg.Batch)
			reqs[0] = cloak.Request{ID: id, Loc: loc}
			for i := 1; i < len(reqs); i++ {
				id := uint64(d.src.Intn(e.cfg.Users)) + 1
				reqs[i] = cloak.Request{ID: id, Loc: e.gen.Pos(id, tick, ph.Hot)}
			}
			ctx, root := spanCtx(e.tracer.StartRoot("soak_batch_update"))
			results, err := d.anon.BatchUpdateCtx(ctx, reqs)
			root.End()
			e.account(err, ph, len(reqs))
			for i, r := range results {
				if r == nil {
					// Under backpressure a nil entry is a typed per-entry shed;
					// the inputs are valid by construction, so nothing else
					// produces one here.
					e.sheds.Add(1)
				} else {
					e.acked[reqs[i].ID].Store(true)
				}
			}
		}
	}
}

// spanCtx pairs one operation's root span with the context that carries
// it to every call the operation makes; both are inert unless the run
// traces.
func spanCtx(root trace.Span) (context.Context, trace.Span) {
	return trace.NewContext(context.Background(), root.Context()), root
}

// account books the outcome of n operations sent in one frame: typed
// sheds are backoff signals, hard errors count toward the error-rate SLO
// unless the phase declared them expected (e.g. querying a killed
// database). A failed frame fails every operation it carried.
func (e *Env) account(err error, ph Phase, n int) {
	e.ops.Add(uint64(n))
	switch {
	case err == nil:
	case errors.Is(err, protocol.ErrOverloaded):
		e.sheds.Add(uint64(n))
		time.Sleep(2 * time.Millisecond) // honor the backoff the shed asks for
	case !ph.AllowErrors:
		e.errs.Add(uint64(n))
	}
}

// KillDB takes the database tier down, leaving its address free for a
// restart. Updates must keep flowing into the spill queue.
func (e *Env) KillDB() {
	e.Log("killing database at %s", e.st.DBAddr())
	e.st.KillDB()
}

// RestartDB brings the database back on the same address. fromSnapshot
// discards the process state and restores the last SaveSnapshot — the
// rolling-restart path; plain restart keeps the in-memory state (a
// network-only outage).
func (e *Env) RestartDB(fromSnapshot bool) error {
	e.Log("restarting database (snapshot=%v)", fromSnapshot)
	return e.st.RestartDB(fromSnapshot)
}

// SaveSnapshot persists the database state for a later snapshot restart.
func (e *Env) SaveSnapshot() error { return e.st.SaveSnapshot() }

// KillShard takes down one shard of the routed tier; the router and the
// other shards keep serving, and the shard's tiles fail behind the
// router's breaker until it comes back.
func (e *Env) KillShard(i int) {
	e.Log("killing shard %d", i)
	e.st.KillShard(i)
}

// RestartShard rebinds a killed shard on its original address with its
// in-memory state intact.
func (e *Env) RestartShard(i int) error {
	e.Log("restarting shard %d", i)
	return e.st.RestartShard(i)
}

// Shards reports the shard count of the routed tier (0 in single mode).
func (e *Env) Shards() int { return e.st.Shards() }

// FlipProfiles raises (or lowers) every user's k at once — the mass
// privacy-dial flip. The flip is capped at 50k users per call so a
// million-user run doesn't serialize forever; the cap is logged, never
// silent.
func (e *Env) FlipProfiles(newK int) error {
	n := uint64(min(e.cfg.Users, 50000))
	if n < uint64(e.cfg.Users) {
		e.Log("profile flip capped at %d of %d users", n, e.cfg.Users)
	}
	e.Log("flipping %d profiles to k=%d", n, newK)
	prof := privacy.Constant(privacy.Requirement{K: newK})
	return e.eachUserShard(func(d *driver, from, to uint64) error {
		for id := from; id <= min(to, n); id++ {
			if err := e.overloadRetry(func() error { return d.anon.UpdateProfile(id, prof) }); err != nil {
				return fmt.Errorf("flip %d: %w", id, err)
			}
		}
		return nil
	})
}

// AwaitRecovery blocks until the pipeline reports healthy — spill queue
// drained and forward breaker closed, both read from the anonymizer's
// live metrics endpoint — and records how long that took. The hard cap is
// generous; the SLO judges the recorded duration.
func (e *Env) AwaitRecovery() error {
	t0 := time.Now()
	hardCap := 60 * time.Second
	for time.Since(t0) < hardCap {
		series, err := e.ctrl.Metrics()
		if err == nil {
			depth := metricVal(series, "anon_forward_queue_depth")
			breaker := metricVal(series, "proto_breaker_state")
			if depth == 0 && breaker == 0 {
				e.mu.Lock()
				e.recovery = time.Since(t0)
				e.mu.Unlock()
				e.Log("recovered in %v", time.Since(t0).Round(time.Millisecond))
				return nil
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	e.mu.Lock()
	e.recovery = hardCap
	e.mu.Unlock()
	return fmt.Errorf("pipeline did not recover within %v", hardCap)
}

// waitDrain waits for the spill queue to empty (ignoring breaker state —
// used after seeding and at teardown).
func (e *Env) waitDrain(within time.Duration) error {
	t0 := time.Now()
	for time.Since(t0) < within {
		series, err := e.ctrl.Metrics()
		if err == nil && metricVal(series, "anon_forward_queue_depth") == 0 {
			return nil
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("spill queue not drained within %v", within)
}

// evaluate reads the final daemon-side metrics and scores every SLO.
func (e *Env) evaluate(res *Result) {
	res.Ops = e.ops.Load()
	res.Errors = e.errs.Load()
	res.Sheds = e.sheds.Load()
	e.mu.Lock()
	res.Recovery = e.recovery
	e.mu.Unlock()

	violate := func(slo, format string, args ...interface{}) {
		res.Violations = append(res.Violations, Violation{SLO: slo, Detail: fmt.Sprintf(format, args...)})
	}

	if err := e.waitDrain(30 * time.Second); err != nil {
		violate("drain", "%v", err)
	}
	var err error
	if res.DBMetrics, err = e.ctrlDB.Metrics(); err != nil {
		e.Log("database metrics unavailable: %v", err)
	}
	series, err := e.ctrl.Metrics()
	if err != nil {
		violate("observability", "metrics endpoint unreadable at teardown: %v", err)
		return
	}
	res.AnonMetrics = series

	// Zero lost updates: an eviction is an acknowledged update that
	// silently died — the failure mode backpressure exists to prevent.
	res.LostUpdates = uint64(metricVal(series, "anon_forward_queue_drops_total") - e.baseDrops)
	if res.LostUpdates > 0 {
		violate("zero-lost-updates", "%d acked updates evicted from the spill queue (anon_forward_queue_drops_total)", res.LostUpdates)
	}

	// k never violated after warmup.
	res.KViolations = uint64(metricVal(series, "anon_cloak_k_missed_total") - e.baseKMissed)
	if res.KViolations > 0 {
		violate("k-anonymity", "%d post-seed cloaks missed k (anon_cloak_k_missed_total)", res.KViolations)
	}

	// Acked-vs-resident consistency: every user whose update was ever
	// acknowledged must be resident in the database after the drain.
	for i := 1; i <= e.cfg.Users; i++ {
		if e.acked[i].Load() {
			res.Acked++
		}
	}
	_, res.Resident, err = e.ctrlDB.Stats()
	switch {
	case err != nil:
		violate("consistency", "database resident count unreadable over MsgStats: %v", err)
	case res.Resident < res.Acked:
		violate("consistency", "database resident count %d < %d acked users", res.Resident, res.Acked)
	}

	// Latency budgets from the daemon's own request histograms.
	res.UpdateP99 = histP99(series, "proto_request_seconds", "update", "batch_update")
	res.QueryP99 = histP99(series, "proto_request_seconds", "cloak_query")
	if e.sc.SLO.UpdateP99 > 0 && res.UpdateP99 > e.sc.SLO.UpdateP99 {
		violate("update-p99", "daemon-side update p99 %v > budget %v", res.UpdateP99, e.sc.SLO.UpdateP99)
	}
	if e.sc.SLO.QueryP99 > 0 && res.QueryP99 > e.sc.SLO.QueryP99 {
		violate("query-p99", "daemon-side cloak-query p99 %v > budget %v", res.QueryP99, e.sc.SLO.QueryP99)
	}

	if e.sc.SLO.MaxErrorRate >= 0 && res.Ops > 0 {
		rate := float64(res.Errors) / float64(res.Ops)
		if rate > e.sc.SLO.MaxErrorRate {
			violate("error-rate", "hard-error rate %.4f > budget %.4f (%d/%d)", rate, e.sc.SLO.MaxErrorRate, res.Errors, res.Ops)
		}
	}
	if e.sc.SLO.RecoverWithin > 0 && res.Recovery > e.sc.SLO.RecoverWithin {
		violate("recovery", "pipeline recovery took %v > budget %v", res.Recovery, e.sc.SLO.RecoverWithin)
	}
}

// metricVal reads one counter or gauge from a wire snapshot (0 when
// absent).
func metricVal(series []obs.MetricSnapshot, name string) float64 {
	for _, s := range series {
		if s.Name == name && (s.Kind == obs.KindCounter || s.Kind == obs.KindGauge) {
			return s.Value
		}
	}
	return 0
}

// histP99 returns the worst p99 across the named histogram's series whose
// "type" label matches any of types (0 when none has observations).
func histP99(series []obs.MetricSnapshot, name string, types ...string) time.Duration {
	var worst float64
	for _, s := range series {
		if s.Name != name || s.Kind != obs.KindHistogram || s.Hist.Count() == 0 {
			continue
		}
		for _, l := range s.Labels {
			if l.Key != "type" {
				continue
			}
			for _, t := range types {
				if l.Value == t {
					if q := s.Hist.Quantile(99); q > worst {
						worst = q
					}
				}
			}
		}
	}
	return time.Duration(worst * float64(time.Second))
}
