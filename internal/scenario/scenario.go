// Package scenario is the traffic driver of the three-tier pipeline: it
// streams a synthetic city through the real anonymizer and database
// daemons over TCP (a stack it boots, or a running deployment), drives it
// through scripted scenarios — steady load, flash crowds, mass profile
// flips, database outages, slow links, rolling restarts, query floods —
// and checks service-level objectives read back from the daemons' own
// live metrics endpoints.
//
// The population comes from mobility.Stream, so user count scales to
// millions without the harness holding per-user generator state; the only
// O(users) structure here is the acked bitmap (one bit per user) that
// cross-checks delivered updates against the database's resident count.
//
// A scenario fails loudly: every SLO violation is recorded with the
// metric evidence, and cmd/lbssoak turns any violation into a non-zero
// exit — the contract the CI short-soak job gates on.
package scenario

import (
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/mobility"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Config sizes and seeds one soak run. The same Config and scenario name
// always produce the same workload.
type Config struct {
	Users   int // registered mobile users (the streamed population)
	Objects int // stationary public objects
	K       int // baseline anonymity requirement
	Workers int // concurrent closed-loop drivers
	Batch   int // locations per BatchUpdate frame (1 = single MsgUpdate)

	Seed  uint64
	Scale float64 // multiplier on phase durations (CI uses < 1)

	// Admission enables the overload-control machinery under test: the
	// daemons' in-flight admission budgets and the anonymizer's forward
	// backpressure. Disabling it is how the harness demonstrates that the
	// protections are load-bearing — the db_outage scenario fails without
	// them.
	Admission   bool
	MaxInflight int // per-daemon admission budget (with Admission)

	// ForwardQueue is the anonymizer's spill-queue capacity. Scenarios
	// may override it (db_outage shrinks it to force pressure).
	ForwardQueue int

	// Shards > 1 deploys the database tier as that many lbsd shards
	// behind a routing service; the anonymizer and the query drivers dial
	// the router. Shards <= 1 is the classic single-database stack.
	Shards int

	// Anon and DB address a running deployment: its anonymizer and its
	// database tier's front (an lbsd or an lbsrouter). With both set Run
	// boots nothing, and the topology fields above are the deployment's
	// business; scenarios that need the booted stack are refused.
	Anon, DB string
	// Trace gives every operation a root span and returns the client's
	// and both daemons' span rings in Result.Traces.
	Trace bool

	Logf func(format string, args ...interface{})
}

func (c Config) withDefaults() Config {
	if c.Users <= 0 {
		c.Users = 20000
	}
	if c.Objects <= 0 {
		c.Objects = 5000
	}
	if c.K <= 0 {
		c.K = 10
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Batch <= 0 {
		c.Batch = 16
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	if c.ForwardQueue <= 0 {
		c.ForwardQueue = 4096
	}
	if c.Logf == nil {
		c.Logf = func(string, ...interface{}) {}
	}
	return c
}

// SLO is the objective set a scenario is gated on. Zero fields skip that
// gate; the implicit objectives — zero lost updates and zero post-seed
// k-anonymity violations — apply to every scenario and cannot be waived.
type SLO struct {
	// UpdateP99 bounds the p99 of the update path as the anonymizer
	// daemon's own proto_request_seconds histogram reports it.
	UpdateP99 time.Duration
	// QueryP99 bounds the daemon-side p99 of the cloak-query path.
	QueryP99 time.Duration
	// MaxErrorRate bounds hard client-visible errors (typed overload
	// rejections are counted separately — a shed is the daemon protecting
	// itself, not a failure) as a fraction of operations.
	MaxErrorRate float64
	// RecoverWithin bounds how long after an outage ends the pipeline may
	// take to report a drained spill queue and a closed breaker.
	RecoverWithin time.Duration
}

// Violation is one failed objective with its evidence.
type Violation struct {
	SLO    string
	Detail string
}

func (v Violation) String() string { return v.SLO + ": " + v.Detail }

// Result is the outcome of one scenario run.
type Result struct {
	Scenario string
	Wall     time.Duration

	Ops    uint64 // operations attempted after seeding
	Errors uint64 // hard failures (not typed sheds)
	Sheds  uint64 // typed MsgOverloaded rejections observed client-side

	UpdateP99 time.Duration // daemon-reported, whole run
	QueryP99  time.Duration
	Recovery  time.Duration // last measured recovery lag (0 = no outage)

	LostUpdates uint64 // spill-queue evictions: acked updates that died
	KViolations uint64 // post-seed cloaks that missed k
	Acked       int    // users with at least one acknowledged update
	Resident    int    // users the database tier holds after the drain (MsgStats)

	Violations []Violation

	// The anonymizer's and the database front's final metric snapshots,
	// and with Config.Trace the client's, the anonymizer's and the
	// database front's span rings.
	AnonMetrics, DBMetrics []obs.MetricSnapshot
	Traces                 [][]trace.SpanRecord
}

// Passed reports whether every objective held.
func (r Result) Passed() bool { return len(r.Violations) == 0 }

// Summary renders the one-line verdict cmd/lbssoak prints per scenario.
func (r Result) Summary() string {
	verdict := "PASS"
	if !r.Passed() {
		verdict = fmt.Sprintf("FAIL (%d violations)", len(r.Violations))
	}
	return fmt.Sprintf("%-16s %s  ops=%d errs=%d sheds=%d lost=%d kviol=%d acked=%d resident=%d p99(upd)=%v p99(qry)=%v recovery=%v wall=%v",
		r.Scenario, verdict, r.Ops, r.Errors, r.Sheds, r.LostUpdates, r.KViolations, r.Acked, r.Resident,
		r.UpdateP99.Round(time.Microsecond), r.QueryP99.Round(time.Microsecond),
		r.Recovery.Round(time.Millisecond), r.Wall.Round(time.Millisecond))
}

// Scenario is one scripted stress story. Run drives the phases through
// the Env helpers; the engine owns seeding, teardown and SLO evaluation.
// Levers, Tune and Link need the booted stack, so a scenario that sets
// any of them is refused against a running deployment.
type Scenario struct {
	Name string
	Desc string
	SLO  SLO
	// Levers marks a scenario that kills, restarts or snapshots the
	// database tier (the Env's KillDB, RestartDB, SaveSnapshot, KillShard
	// and RestartShard).
	Levers bool
	// Tune adjusts the booted topology (db_outage shrinks the forward
	// queue to force pressure).
	Tune func(cfg *Config)
	// Link, when set, is a fault plan installed on every
	// anonymizer→database forward connection — the slow-link dial.
	Link func(conn int) []faults.Rule
	Run  func(e *Env) error
}

// Phase is one closed-loop driving segment.
type Phase struct {
	Name string
	Dur  time.Duration // scaled by Config.Scale
	// Hot pulls part of the population toward an attractor — the flash
	// crowd dial (nil = baseline city).
	Hot *mobility.Hotspot
	// QueryPct is the share of operations that are private NN queries
	// (cloak at the anonymizer, refine against the database); CountPct
	// the share that are public counts over a 0.1-half-width rectangle.
	// The rest are location updates.
	QueryPct, CountPct int
	// AllowErrors suppresses the per-phase error accounting toward
	// MaxErrorRate — for phases that deliberately break a tier (queries
	// against a killed database).
	AllowErrors bool
}
