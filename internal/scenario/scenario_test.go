package scenario

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/stack"
)

// tinyCfg keeps engine smoke tests inside test-suite budgets: a small
// city, short phases, the overload machinery on.
func tinyCfg() Config {
	return Config{
		Users: 600, Objects: 200, K: 5,
		Workers: 4, Batch: 8,
		Seed: 42, Scale: 0.05,
		Admission: true, MaxInflight: 64,
	}
}

func TestCatalogFindRoundTrip(t *testing.T) {
	cat := Catalog()
	if len(cat) < 7 {
		t.Fatalf("catalog has %d scenarios, want >= 7", len(cat))
	}
	for _, sc := range cat {
		got, ok := Find(sc.Name)
		if !ok || got.Name != sc.Name {
			t.Fatalf("Find(%q) = %v, %v", sc.Name, got.Name, ok)
		}
		if sc.Run == nil || sc.Desc == "" {
			t.Fatalf("scenario %q missing Run or Desc", sc.Name)
		}
	}
	if _, ok := Find("no_such_scenario"); ok {
		t.Fatal("Find accepted an unknown scenario name")
	}

	// Against a running deployment a scenario that needs the booted stack
	// is refused before anything is dialed or driven.
	remote := Config{Anon: "127.0.0.1:1", DB: "127.0.0.1:1"}
	for _, name := range []string{"db_outage", "shard_kill", "slow_link", "rolling_restart", "query_flood"} {
		sc, _ := Find(name)
		if _, err := Run(sc, remote); err == nil || !strings.Contains(err.Error(), "needs the booted stack") {
			t.Fatalf("%s against a running deployment: err = %v, want the booted-stack refusal", name, err)
		}
	}
}

// TestEngineSmokePasses drives the full stack twice and expects a clean
// verdict each time: a short hotspot scenario on a stack the engine
// boots, and the catalog's steady scenario with single updates against a
// stack booted here and given as a running deployment. Operations flowed,
// nothing was lost, k held after warmup, the residency read over MsgStats
// covered every acked user, and the daemons served public counts.
func TestEngineSmokePasses(t *testing.T) {
	smoke := Scenario{
		Name: "smoke",
		Desc: "short hotspot drive",
		SLO:  SLO{MaxErrorRate: 0.001},
		Run: func(e *Env) error {
			hot := &mobility.Hotspot{Center: geo.Pt(0.3, 0.3), Frac: 0.5, Pull: 0.8}
			e.Drive(Phase{Name: "base", Dur: 4 * time.Second, QueryPct: 20, CountPct: 10},
				Phase{Name: "hot", Dur: 4 * time.Second, Hot: hot, QueryPct: 20})
			return nil
		},
	}
	st, err := stack.Boot(stack.Topology{MaxInflight: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	steady, _ := Find("steady")
	remote := tinyCfg()
	remote.Batch, remote.Anon, remote.DB = 1, st.AnonAddr(), st.DBAddr()
	for _, c := range []struct {
		sc     Scenario
		cfg    Config
		update string // the update message the drivers send
	}{
		{smoke, tinyCfg(), "batch_update"},
		{steady, remote, "update"},
	} {
		t.Run(c.sc.Name, func(t *testing.T) {
			res, err := Run(c.sc, c.cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if !res.Passed() {
				t.Fatalf("%s failed: %v", c.sc.Name, res.Violations)
			}
			if res.Ops == 0 {
				t.Fatal("no operations driven")
			}
			if res.LostUpdates != 0 || res.KViolations != 0 {
				t.Fatalf("lost=%d kviol=%d, want 0/0", res.LostUpdates, res.KViolations)
			}
			if res.Acked < c.cfg.Users || res.Resident < res.Acked {
				t.Fatalf("consistency read: acked=%d resident=%d, want both ≥ %d", res.Acked, res.Resident, c.cfg.Users)
			}
			if n := served(res.DBMetrics, "public_count"); n == 0 {
				t.Fatal("the database front served no public counts")
			}
			if n := served(res.AnonMetrics, c.update); n == 0 {
				t.Fatalf("the anonymizer served no %s frames", c.update)
			}
		})
	}
}

// served counts the requests of one message type in a daemon's
// proto_request_seconds histograms.
func served(series []obs.MetricSnapshot, typ string) uint64 {
	var n uint64
	for _, s := range series {
		for _, l := range s.Labels {
			if s.Name == "proto_request_seconds" && s.Kind == obs.KindHistogram && l.Key == "type" && l.Value == typ {
				n += s.Hist.Count()
			}
		}
	}
	return n
}

// TestFailedFrameFailsEveryEntry: a BatchUpdate frame that fails books
// every location it carried as a failed operation, so the error rate is
// not understated by the batch size.
func TestFailedFrameFailsEveryEntry(t *testing.T) {
	ac, err := protocol.DialAnonymizer("127.0.0.1:1", protocol.WithLazyDial(),
		protocol.WithCallTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()
	gen, err := mobility.NewStream(mobility.StreamSpec{World: stack.World, Seed: 1, NumClusters: 4})
	if err != nil {
		t.Fatal(err)
	}
	e := &Env{cfg: Config{Users: 10, Batch: 8}, gen: gen, acked: make([]atomic.Bool, 11)}
	e.driveWorker(&driver{anon: ac, src: rng.New(1)}, Phase{Name: "dead"}, time.Now().Add(50*time.Millisecond))
	if ops, errs := e.ops.Load(), e.errs.Load(); ops == 0 || errs != ops {
		t.Fatalf("%d of %d operations booked as failed, want all of them", errs, ops)
	}
}

// TestOutageWithoutAdmissionLosesUpdates is the verdict-logic pin for the
// load-bearing claim: with the overload machinery disabled, an outage
// under a small spill queue evicts acked updates and the engine must
// report the zero-lost-updates violation.
func TestOutageWithoutAdmissionLosesUpdates(t *testing.T) {
	sc := Scenario{
		Name: "outage_unprotected",
		Desc: "db killed with eviction-mode queue",
		SLO:  SLO{MaxErrorRate: 0.001, RecoverWithin: 30 * time.Second},
		Tune: func(cfg *Config) { cfg.ForwardQueue = 64 },
		Run: func(e *Env) error {
			e.Drive(Phase{Name: "base", Dur: 2 * time.Second, QueryPct: 0})
			e.KillDB()
			e.Drive(Phase{Name: "outage", Dur: 4 * time.Second, QueryPct: 0})
			if err := e.RestartDB(false); err != nil {
				return err
			}
			return e.AwaitRecovery()
		},
	}
	cfg := tinyCfg()
	cfg.Admission = false
	cfg.Scale = 0.25
	res, err := Run(sc, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Passed() {
		t.Fatal("unprotected outage passed; expected lost-update violation")
	}
	if res.LostUpdates == 0 {
		t.Fatalf("LostUpdates = 0, want > 0; violations: %v", res.Violations)
	}
	found := false
	for _, v := range res.Violations {
		if v.SLO == "zero-lost-updates" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no zero-lost-updates violation recorded: %v", res.Violations)
	}
}

// TestShardKillRoutedTier drives the routed database tier through a
// one-shard outage with the machinery on: surviving tiles keep serving,
// the spill queue replays the dead shard's updates after the restart,
// and nothing acked is lost.
func TestShardKillRoutedTier(t *testing.T) {
	sc := Scenario{
		Name: "shard_kill_smoke",
		Desc: "one shard killed and restarted under load",
		SLO:  SLO{MaxErrorRate: 0.001, RecoverWithin: 30 * time.Second},
		Tune: func(cfg *Config) { cfg.ForwardQueue = 64 },
		Run: func(e *Env) error {
			if e.Shards() != 3 {
				return fmt.Errorf("routed stack has %d shards, want 3", e.Shards())
			}
			e.Drive(Phase{Name: "base", Dur: 2 * time.Second, QueryPct: 10})
			e.KillShard(2)
			e.Drive(Phase{Name: "degraded", Dur: 3 * time.Second, QueryPct: 10, AllowErrors: true})
			if err := e.RestartShard(2); err != nil {
				return err
			}
			return e.AwaitRecovery()
		},
	}
	cfg := tinyCfg()
	cfg.Shards = 3
	cfg.Scale = 0.25
	res, err := Run(sc, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Passed() {
		t.Fatalf("routed shard-kill smoke failed: %v", res.Violations)
	}
	if res.Ops == 0 {
		t.Fatal("no operations driven")
	}
	if res.LostUpdates != 0 {
		t.Fatalf("LostUpdates = %d, want 0", res.LostUpdates)
	}
}

// TestShardKillTuneForcesRoutedTier pins the catalog contract CI relies
// on: running shard_kill without -shards still deploys a routed tier.
func TestShardKillTuneForcesRoutedTier(t *testing.T) {
	sc, ok := Find("shard_kill")
	if !ok {
		t.Fatal("shard_kill missing from catalog")
	}
	cfg := Config{}
	sc.Tune(&cfg)
	if cfg.Shards < 2 {
		t.Fatalf("shard_kill Tune left Shards = %d, want >= 2", cfg.Shards)
	}
	if cfg.ForwardQueue == 0 || cfg.ForwardQueue > 1024 {
		t.Fatalf("shard_kill Tune left ForwardQueue = %d, want a small eviction-prone queue", cfg.ForwardQueue)
	}
}

// TestOutageWithAdmissionHoldsTheLine is the same outage with the
// machinery on: the queue rejects typed instead of evicting, so nothing
// acked is lost and the run passes.
func TestOutageWithAdmissionHoldsTheLine(t *testing.T) {
	sc := Scenario{
		Name: "outage_protected",
		Desc: "db killed with backpressure on",
		SLO:  SLO{MaxErrorRate: 0.001, RecoverWithin: 30 * time.Second},
		Tune: func(cfg *Config) { cfg.ForwardQueue = 64 },
		Run: func(e *Env) error {
			e.Drive(Phase{Name: "base", Dur: 2 * time.Second, QueryPct: 0})
			e.KillDB()
			e.Drive(Phase{Name: "outage", Dur: 4 * time.Second, QueryPct: 0})
			if err := e.RestartDB(false); err != nil {
				return err
			}
			return e.AwaitRecovery()
		},
	}
	cfg := tinyCfg()
	cfg.Scale = 0.25
	res, err := Run(sc, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Passed() {
		t.Fatalf("protected outage failed: %v", res.Violations)
	}
	if res.Sheds == 0 {
		t.Fatal("expected typed sheds while the queue was saturated")
	}
	if res.LostUpdates != 0 {
		t.Fatalf("LostUpdates = %d, want 0", res.LostUpdates)
	}
}
