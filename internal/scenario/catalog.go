package scenario

import (
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/mobility"
)

// Catalog returns the adversarial scenario set, in the order lbssoak runs
// them. Every scenario carries the implicit objectives (zero lost
// updates, zero post-seed k violations) plus the budgets listed here;
// durations are pre-scale.
func Catalog() []Scenario {
	return []Scenario{
		steady(),
		flashCrowd(),
		commuterRush(),
		profileFlip(),
		dbOutage(),
		shardKill(),
		slowLink(),
		rollingRestart(),
		queryFlood(),
	}
}

// Find returns the named scenario from the catalog.
func Find(name string) (Scenario, bool) {
	for _, sc := range Catalog() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// Latency budgets are deliberately loose — they catch collapse (seconds),
// not jitter; CI machines are noisy neighbors.
const (
	updateBudget = 500 * time.Millisecond
	queryBudget  = 500 * time.Millisecond
)

// steady: the baseline city under a fixed mix of updates, private NN
// queries and public counts — the load a running deployment can take,
// since it needs nothing but the two addresses.
func steady() Scenario {
	return Scenario{
		Name: "steady",
		Desc: "baseline city: updates, private NN and public counts at a fixed mix",
		SLO:  SLO{UpdateP99: updateBudget, QueryP99: queryBudget, MaxErrorRate: 0.001},
		Run: func(e *Env) error {
			e.Drive(Phase{Name: "steady", Dur: 10 * time.Second, QueryPct: 20, CountPct: 10})
			return nil
		},
	}
}

// flashCrowd: a stadium empties — most of the population converges on one
// point, then the hotspot migrates across town. Cloaked regions shrink in
// the crowd and balloon in the emptied tail; k must hold through both.
func flashCrowd() Scenario {
	return Scenario{
		Name: "flash_crowd",
		Desc: "Zipf hotspot forms, intensifies, then migrates across town",
		SLO:  SLO{UpdateP99: updateBudget, QueryP99: queryBudget, MaxErrorRate: 0.001},
		Run: func(e *Env) error {
			stadium := &mobility.Hotspot{Center: geo.Pt(0.25, 0.25), Frac: 0.6, Pull: 0.85}
			moved := &mobility.Hotspot{Center: geo.Pt(0.8, 0.7), Frac: 0.6, Pull: 0.85}
			e.Drive(Phase{Name: "baseline", Dur: 4 * time.Second, QueryPct: 15},
				Phase{Name: "flash", Dur: 6 * time.Second, Hot: stadium, QueryPct: 15},
				Phase{Name: "migrate", Dur: 6 * time.Second, Hot: moved, QueryPct: 15})
			return nil
		},
	}
}

// commuterRush: rush hour — a growing share of the city funnels downtown,
// then disperses. The density wave sweeps the quadtree's cell occupancy
// up and back down.
func commuterRush() Scenario {
	return Scenario{
		Name: "commuter_rush",
		Desc: "population funnels downtown in waves, then disperses",
		SLO:  SLO{UpdateP99: updateBudget, QueryP99: queryBudget, MaxErrorRate: 0.001},
		Run: func(e *Env) error {
			downtown := geo.Pt(0.5, 0.5)
			for i, frac := range []float64{0.2, 0.5, 0.8} {
				hot := &mobility.Hotspot{Center: downtown, Frac: frac, Pull: 0.7}
				e.Drive(Phase{Name: fmt.Sprintf("wave-%d", i+1), Dur: 4 * time.Second, Hot: hot, QueryPct: 20})
			}
			e.Drive(Phase{Name: "disperse", Dur: 4 * time.Second, QueryPct: 20})
			return nil
		},
	}
}

// profileFlip: everyone raises k at once mid-run — the mass privacy-dial
// flip. Regions must grow to honor the new k with zero violations and no
// re-registration churn.
func profileFlip() Scenario {
	return Scenario{
		Name: "profile_flip",
		Desc: "whole population raises k mid-run via MsgUpdateProfile",
		SLO:  SLO{UpdateP99: updateBudget, MaxErrorRate: 0.001},
		Run: func(e *Env) error {
			e.Drive(Phase{Name: "baseline", Dur: 4 * time.Second, QueryPct: 10})
			if err := e.FlipProfiles(e.cfg.K * 3); err != nil {
				return err
			}
			e.Drive(Phase{Name: "raised-k", Dur: 5 * time.Second, QueryPct: 10})
			if err := e.FlipProfiles(e.cfg.K); err != nil {
				return err
			}
			e.Drive(Phase{Name: "restored-k", Dur: 3 * time.Second, QueryPct: 10})
			return nil
		},
	}
}

// dbOutage: the database dies mid-rush and comes back. With admission
// control the anonymizer sheds typed once its spill queue fills; without
// it the queue silently evicts acked updates — the run that proves the
// machinery is load-bearing, because this scenario fails with
// -admission=false.
func dbOutage() Scenario {
	return Scenario{
		Name:   "db_outage",
		Desc:   "database killed mid-rush; spill, shed typed, recover",
		SLO:    SLO{MaxErrorRate: 0.001, RecoverWithin: 20 * time.Second},
		Levers: true,
		Tune: func(cfg *Config) {
			// A queue far smaller than the per-outage update volume: the
			// full-queue policy (reject vs evict) decides the verdict.
			cfg.ForwardQueue = 256
		},
		Run: func(e *Env) error {
			e.Drive(Phase{Name: "baseline", Dur: 3 * time.Second, QueryPct: 10})
			e.KillDB()
			e.Drive(Phase{Name: "outage", Dur: 5 * time.Second, QueryPct: 0})
			if err := e.RestartDB(false); err != nil {
				return err
			}
			if err := e.AwaitRecovery(); err != nil {
				return err
			}
			e.Drive(Phase{Name: "aftermath", Dur: 3 * time.Second, QueryPct: 10})
			return nil
		},
	}
}

// shardKill: the database tier is a routed fleet and one shard dies
// mid-rush. The router's breaker on that shard's link opens and isolates
// it, so queries over surviving tiles keep their latency budget; updates
// whose cloaked regions touch the dead shard spill at the anonymizer and
// replay after the restart. With admission control the full spill queue
// sheds typed; without it the queue evicts acked updates and the run
// fails — the routed-tier twin of db_outage's load-bearing proof.
func shardKill() Scenario {
	return Scenario{
		Name:   "shard_kill",
		Desc:   "one shard of the routed tier killed mid-rush; breaker isolates it",
		SLO:    SLO{UpdateP99: updateBudget, QueryP99: queryBudget, MaxErrorRate: 0.001, RecoverWithin: 20 * time.Second},
		Levers: true,
		Tune: func(cfg *Config) {
			if cfg.Shards < 2 {
				cfg.Shards = 4
			}
			// Same undersized queue as db_outage: with only a quarter of the
			// tiles dark the spill inflow is smaller, so the queue must be
			// small for the full-queue policy to decide the verdict.
			cfg.ForwardQueue = 256
		},
		Run: func(e *Env) error {
			e.Drive(Phase{Name: "baseline", Dur: 3 * time.Second, QueryPct: 10})
			e.KillShard(1)
			// Queries keep flowing: most tiles survive, and the ones that
			// don't fail fast behind the open breaker (waived here).
			e.Drive(Phase{Name: "degraded", Dur: 5 * time.Second, QueryPct: 10, AllowErrors: true})
			if err := e.RestartShard(1); err != nil {
				return err
			}
			if err := e.AwaitRecovery(); err != nil {
				return err
			}
			e.Drive(Phase{Name: "aftermath", Dur: 3 * time.Second, QueryPct: 10})
			return nil
		},
	}
}

// slowLink: the anonymizer→database link degrades — every forward
// connection is bandwidth-capped and its first frames delayed, exercising
// the pause/bandwidth fault actions end to end. Updates must keep
// flowing; the spill queue absorbs what the link cannot carry.
func slowLink() Scenario {
	return Scenario{
		Name: "slow_link",
		Desc: "forward link bandwidth-capped and delayed; pipeline absorbs",
		SLO:  SLO{MaxErrorRate: 0.001},
		Link: func(conn int) []faults.Rule {
			// Every forward connection: first frame stalls mid-transfer,
			// the rest trickle under a byte-rate cap. The cap is per-write
			// and sleep-granularity bound, so small frames pay latency, not
			// starvation — enough to bite without stalling the seed drain.
			return []faults.Rule{
				{Op: faults.Write, Nth: 1, Action: faults.Pause, Delay: 20 * time.Millisecond},
				{Op: faults.Write, Nth: 2, Action: faults.Bandwidth, Rate: 1 << 20},
			}
		},
		Run: func(e *Env) error {
			e.Drive(Phase{Name: "degraded", Dur: 8 * time.Second, QueryPct: 10})
			return e.waitDrain(30 * time.Second)
		},
	}
}

// rollingRestart: the database is killed and replaced by a fresh process
// restored from its crash-safe snapshot — twice. The quiet users come
// back from disk, the movers from the replay queue; nobody is lost.
func rollingRestart() Scenario {
	return Scenario{
		Name:   "rolling_restart",
		Desc:   "two snapshot-restore restarts of the database under load",
		SLO:    SLO{MaxErrorRate: 0.001, RecoverWithin: 20 * time.Second},
		Levers: true,
		Run: func(e *Env) error {
			for round := 1; round <= 2; round++ {
				e.Drive(Phase{Name: fmt.Sprintf("steady-%d", round), Dur: 3 * time.Second, QueryPct: 10})
				if err := e.SaveSnapshot(); err != nil {
					return err
				}
				e.KillDB()
				e.Drive(Phase{Name: fmt.Sprintf("gap-%d", round), Dur: 2 * time.Second, QueryPct: 0})
				if err := e.RestartDB(true); err != nil {
					return err
				}
				if err := e.AwaitRecovery(); err != nil {
					return err
				}
			}
			e.Drive(Phase{Name: "aftermath", Dur: 3 * time.Second, QueryPct: 10})
			return nil
		},
	}
}

// queryFlood: a query storm tries to starve the update path. Admission
// control caps queries at half the in-flight budget, so updates keep
// landing and the storm is shed typed rather than queued unboundedly.
func queryFlood() Scenario {
	return Scenario{
		Name: "query_flood",
		Desc: "query storm; updates must keep flowing under admission",
		SLO:  SLO{UpdateP99: updateBudget, MaxErrorRate: 0.001},
		Tune: func(cfg *Config) {
			// Budget pinned to the worker count so the 90% query storm
			// actually overruns the query half-budget: queries shed typed
			// while updates, admitted against the full budget, keep landing.
			cfg.MaxInflight = cfg.Workers
		},
		Run: func(e *Env) error {
			e.Drive(Phase{Name: "baseline", Dur: 3 * time.Second, QueryPct: 10},
				Phase{Name: "flood", Dur: 6 * time.Second, QueryPct: 90},
				Phase{Name: "calm", Dur: 3 * time.Second, QueryPct: 10})
			return nil
		},
	}
}
