package anonymizer

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cloak"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/privacy"
	"repro/internal/rng"
)

// The differential suite proves the sharded parallel pipeline equivalent to
// the historical serialized anonymizer: for every seed in
// testdata/diff_seeds.txt and every cloaking algorithm, one deterministic
// workload script is replayed against a sequential reference configuration
// (Shards=1, BatchWorkers=1) and a sharded parallel one, and every
// cloak.Result — batched and single-call alike — must match bit for bit.
//
// Every replay forwards to a recording forwarder. With the incremental
// cache on, each op is followed by a check of what the cache promises: a
// user's cached region is exactly the region the database last received
// for her, so a reused region is one the database holds.

// diffShards returns the shard count of the parallel side. The CI matrix
// overrides it via ANON_TEST_SHARDS.
func diffShards(t testing.TB) int {
	t.Helper()
	s := os.Getenv("ANON_TEST_SHARDS")
	if s == "" {
		return 8
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 || n > MaxShards {
		t.Fatalf("bad ANON_TEST_SHARDS=%q", s)
	}
	return n
}

// diffSeeds loads the committed seed table.
func diffSeeds(t testing.TB) []uint64 {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "diff_seeds.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var seeds []uint64
	for ln, line := range strings.Split(string(raw), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		s, err := strconv.ParseUint(line, 10, 64)
		if err != nil {
			t.Fatalf("diff_seeds.txt:%d: %v", ln+1, err)
		}
		seeds = append(seeds, s)
	}
	if len(seeds) == 0 {
		t.Fatal("diff_seeds.txt holds no seeds")
	}
	return seeds
}

// A diffOp is one step of a workload script.
type diffOp struct {
	kind    byte // 'B' batch, 'U' update, 'Q' query, 'M' set mode, 'P' replace profile, 'D' deregister, 'R' register
	id      uint64
	loc     geo.Point
	mode    privacy.Mode
	k       int
	batch   []cloak.Request
	comment string
}

// diffK spreads requirement levels over users so that users id, id+37, ...
// share a requirement (a precondition for shared descents).
func diffK(id uint64) int { return 1 + int(id%37) }

// buildDiffScript generates the deterministic workload for one seed: users
// move in batches (with deliberate co-located triples to exercise the
// shared-descent memo), issue single updates and query cloaks, toggle
// modes, replace profiles, and churn registrations.
func buildDiffScript(t testing.TB, seed uint64, users, rounds int) []diffOp {
	t.Helper()
	pts, err := mobility.GeneratePoints(mobility.PopulationSpec{
		N: users, World: world, Dist: mobility.Gaussian, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(seed ^ 0xD1FF)
	var ops []diffOp

	batchOf := func() diffOp {
		reqs := make([]cloak.Request, 0, users+30)
		for i := range pts {
			reqs = append(reqs, cloak.Request{ID: uint64(i + 1), Loc: pts[i]})
		}
		// Co-located triples with a shared requirement: ids d, d+37, d+74
		// (same diffK class) at the identical point. These share one cloak
		// in every algorithm's batch. Each of them is then in the batch
		// twice, at two places, so only her last entry may reach the cache.
		for j := 0; j < 10; j++ {
			d := uint64(src.Intn(users-74)) + 1
			p := world.ClampPoint(geo.Pt(src.Float64(), src.Float64()))
			for _, id := range []uint64{d, d + 37, d + 74} {
				reqs = append(reqs, cloak.Request{ID: id, Loc: p})
				pts[id-1] = p
			}
		}
		return diffOp{kind: 'B', batch: reqs}
	}

	for r := 0; r < rounds; r++ {
		// Everyone drifts a little, then the batch goes in.
		for i := range pts {
			pts[i] = world.ClampPoint(geo.Pt(
				pts[i].X+src.Range(-0.01, 0.01),
				pts[i].Y+src.Range(-0.01, 0.01),
			))
		}
		ops = append(ops, batchOf())
		// Interleaved single-call traffic.
		for j := 0; j < 20; j++ {
			id := uint64(src.Intn(users)) + 1
			pts[id-1] = world.ClampPoint(geo.Pt(src.Float64(), src.Float64()))
			ops = append(ops, diffOp{kind: 'U', id: id, loc: pts[id-1]})
		}
		for j := 0; j < 10; j++ {
			id := uint64(src.Intn(users)) + 1
			ops = append(ops, diffOp{kind: 'Q', id: id, loc: pts[id-1]})
		}
		// Mode churn: one user goes passive (her next update errors), then
		// active again.
		pid := uint64(src.Intn(users)) + 1
		ops = append(ops,
			diffOp{kind: 'M', id: pid, mode: privacy.Passive},
			diffOp{kind: 'U', id: pid, loc: pts[pid-1], comment: "passive update must fail"},
			diffOp{kind: 'M', id: pid, mode: privacy.Active},
			diffOp{kind: 'U', id: pid, loc: pts[pid-1]},
		)
		// Profile churn invalidates any cached region.
		cid := uint64(src.Intn(users)) + 1
		ops = append(ops,
			diffOp{kind: 'P', id: cid, k: 5 + src.Intn(40)},
			diffOp{kind: 'U', id: cid, loc: pts[cid-1]},
		)
		// Registration churn.
		did := uint64(src.Intn(users)) + 1
		ops = append(ops,
			diffOp{kind: 'D', id: did},
			diffOp{kind: 'R', id: did, k: diffK(did)},
			diffOp{kind: 'U', id: did, loc: pts[did-1]},
		)
	}
	return ops
}

// diffTrace is everything observable from replaying a script: results in
// op order (batch results flattened), error outcomes, and the final stats.
type diffTrace struct {
	results []cloak.Result
	oks     []bool // per emitted result: non-nil / no error
	stats   Stats
}

// runDiffScript replays a script against a fresh anonymizer that forwards
// to a recording forwarder.
func runDiffScript(t testing.TB, cfg Config, users int, ops []diffOp) diffTrace {
	t.Helper()
	db := newFlakyForwarder()
	cfg.Forward = db.forward
	a := newAnon(t, cfg)
	for id := uint64(1); id <= uint64(users); id++ {
		if err := a.Register(id, privacy.Constant(privacy.Requirement{K: diffK(id)})); err != nil {
			t.Fatal(err)
		}
	}
	var tr diffTrace
	emit := func(res cloak.Result, ok bool) {
		tr.results = append(tr.results, res)
		tr.oks = append(tr.oks, ok)
	}
	for _, op := range ops {
		switch op.kind {
		case 'B':
			for _, res := range a.BatchUpdate(op.batch) {
				if res == nil {
					emit(cloak.Result{}, false)
				} else {
					emit(*res, true)
				}
			}
		case 'U':
			res, err := a.Update(op.id, op.loc)
			emit(res, err == nil)
		case 'Q':
			res, err := a.CloakQuery(op.id, op.loc)
			emit(res, err == nil)
		case 'M':
			if err := a.SetMode(op.id, op.mode); err != nil {
				t.Fatalf("SetMode(%d): %v", op.id, err)
			}
		case 'P':
			if err := a.UpdateProfile(op.id, privacy.Constant(privacy.Requirement{K: op.k})); err != nil {
				t.Fatalf("UpdateProfile(%d): %v", op.id, err)
			}
		case 'D':
			if !a.Deregister(op.id) {
				t.Fatalf("Deregister(%d): unknown", op.id)
			}
		case 'R':
			if err := a.Register(op.id, privacy.Constant(privacy.Requirement{K: op.k})); err != nil {
				t.Fatalf("Register(%d): %v", op.id, err)
			}
		}
		if cfg.Incremental {
			checkCacheHeldDownstream(t, a, db, users, op)
		}
	}
	tr.stats = a.Stats()
	return tr
}

// checkCacheHeldDownstream fails the test unless every cached region is
// the region db last received for that user.
func checkCacheHeldDownstream(t testing.TB, a *Anonymizer, db *flakyForwarder, users int, op diffOp) {
	t.Helper()
	for id := uint64(1); id <= uint64(users); id++ {
		s, _ := a.shardFor(id)
		cached, ok := s.inc.Cached(id)
		if !ok {
			continue
		}
		if held, ok := db.regionOf(id); !ok || held != cached {
			t.Fatalf("after op %c: user %d has cached region %v, the database holds %v (received: %v)",
				op.kind, id, cached, held, ok)
		}
	}
}

// compareTraces fails the test on the first divergence.
func compareTraces(t *testing.T, seq, par diffTrace) {
	t.Helper()
	if len(seq.results) != len(par.results) {
		t.Fatalf("trace lengths diverge: seq=%d par=%d", len(seq.results), len(par.results))
	}
	for i := range seq.results {
		if seq.oks[i] != par.oks[i] {
			t.Fatalf("result %d: outcome diverges (seq ok=%v, par ok=%v)", i, seq.oks[i], par.oks[i])
		}
		if seq.results[i] != par.results[i] {
			t.Fatalf("result %d: not bit-identical:\n  seq: %+v\n  par: %+v", i, seq.results[i], par.results[i])
		}
	}
	s, p := seq.stats, par.stats
	type core struct {
		Registered                                            int
		Updates, Queries, Reused, BestEffort, Batches, Shared uint64
	}
	cs := core{s.Registered, s.Updates, s.Queries, s.Reused, s.BestEffort, s.Batches, s.SharedHits}
	cp := core{p.Registered, p.Updates, p.Queries, p.Reused, p.BestEffort, p.Batches, p.SharedHits}
	if cs != cp {
		t.Fatalf("stats diverge:\n  seq: %+v\n  par: %+v", cs, cp)
	}
}

// TestDifferentialShardedEqualsSequential is the core equivalence proof:
// all algorithms × all committed seeds, sequential reference vs sharded
// parallel pipeline.
func TestDifferentialShardedEqualsSequential(t *testing.T) {
	const users, rounds = 300, 3
	shards := diffShards(t)
	for _, alg := range []Algorithm{AlgQuadtree, AlgGrid, AlgGridML} {
		for _, seed := range diffSeeds(t) {
			t.Run(fmt.Sprintf("%v/seed=%d", alg, seed), func(t *testing.T) {
				t.Parallel()
				ops := buildDiffScript(t, seed, users, rounds)
				seq := runDiffScript(t, Config{Algorithm: alg, Shards: 1, BatchWorkers: 1}, users, ops)
				par := runDiffScript(t, Config{Algorithm: alg, Shards: shards, BatchWorkers: 4}, users, ops)
				compareTraces(t, seq, par)
				if par.stats.SharedHits == 0 {
					t.Error("co-located triples produced no shared descents")
				}
			})
		}
	}
}

// TestDifferentialAcrossGoMaxProcs re-proves sharded ≡ sequential with the
// scheduler pinned to GOMAXPROCS 1 and 4 — the two pinned points of the
// bench matrix (E16). The subtests are deliberately serial because
// GOMAXPROCS is process-global.
func TestDifferentialAcrossGoMaxProcs(t *testing.T) {
	const users = 300
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			runtime.GOMAXPROCS(procs)
			ops := buildDiffScript(t, 7, users, 2)
			seq := runDiffScript(t, Config{Shards: 1, BatchWorkers: 1}, users, ops)
			par := runDiffScript(t, Config{Shards: 4, BatchWorkers: 4}, users, ops)
			compareTraces(t, seq, par)
		})
	}
}

// TestDifferentialIncremental repeats the proof with the incremental cache
// enabled — the shard-local caches must reproduce the single-cache
// reference exactly, reuse counts included.
func TestDifferentialIncremental(t *testing.T) {
	const users, rounds = 300, 3
	shards := diffShards(t)
	for _, seed := range diffSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			ops := buildDiffScript(t, seed, users, rounds)
			seq := runDiffScript(t, Config{Incremental: true, Shards: 1, BatchWorkers: 1}, users, ops)
			par := runDiffScript(t, Config{Incremental: true, Shards: shards, BatchWorkers: 4}, users, ops)
			compareTraces(t, seq, par)
			if par.stats.Reused == 0 {
				t.Error("incremental workload produced no reuses")
			}
		})
	}
}

// TestSharedHitsNeverDecreaseUnderBatching: splitting a stream into batches
// can only lose sharing at batch boundaries, never gain it — and the batch
// path must never report more shared hits than distinct-key accounting
// allows. Verified against a brute-force distinct-key count per batch.
func TestSharedHitsNeverDecreaseUnderBatching(t *testing.T) {
	const users = 300
	ops := buildDiffScript(t, 42, users, 2)
	var batches [][]cloak.Request
	for _, op := range ops {
		if op.kind == 'B' {
			batches = append(batches, op.batch)
		}
	}
	run := func(split bool) uint64 {
		a := newAnon(t, Config{Shards: diffShards(t), BatchWorkers: 4})
		for id := uint64(1); id <= users; id++ {
			a.Register(id, privacy.Constant(privacy.Requirement{K: diffK(id)}))
		}
		for _, b := range batches {
			if !split {
				a.BatchUpdate(b)
				continue
			}
			for len(b) > 0 {
				n := min(64, len(b))
				a.BatchUpdate(b[:n])
				b = b[n:]
			}
		}
		return a.Stats().SharedHits
	}
	whole, split := run(false), run(true)
	if whole < split {
		t.Errorf("shared hits decreased under larger batches: whole=%d split=%d", whole, split)
	}
	if whole == 0 {
		t.Error("no shared hits at all")
	}
}
