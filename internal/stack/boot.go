package stack

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/anonymizer"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/trace"
)

// World is the unit square every booted tier serves.
var World = geo.R(0, 0, 1, 1)

// Topology is one in-process deployment of the three tiers. The zero
// value is the daemons' defaults over a single lbsd; each field is a lever
// that two callers set differently.
type Topology struct {
	// Shards is the database tier: 0 = one lbsd, n ≥ 1 = a router over n
	// lbsd shards; Boot rejects a negative count.
	Shards int
	// MaxInflight is every service's admission budget (0 = admission off).
	MaxInflight int
	// ForwardQueue is the anonymizer's spill-queue capacity (0 = the
	// anonymizerd default, ForwardQueue).
	ForwardQueue int
	// NoBackpressure makes a full spill queue evict its oldest region
	// instead of rejecting the update typed (anonymizerd -backpressure=false).
	NoBackpressure bool
	// Dialer replaces the forward link's transport (nil = plain TCP).
	Dialer func(addr string) (net.Conn, error)
	// Trace gives the anonymizer and the database tier's front (the lbsd,
	// or the router) a tracer each; the daemons' sample rate stays 0, so
	// only requests a traced client propagates are recorded.
	Trace bool
	// Logf receives the services' logs (nil = discarded).
	Logf func(string, ...interface{})
}

// Stack is a booted topology on loopback TCP. Its levers are meant for
// one driving goroutine; the services themselves are safe for concurrent
// clients.
type Stack struct {
	topo   Topology
	tracer *trace.Tracer // the direct lbsd's; nil when routed or untraced

	// The database servers — the lbsd, or one per shard — with their
	// services (nil while killed) and the addresses they rebind to.
	srvs  []*server.Server
	svcs  []*protocol.Service
	addrs []string

	rtr  *Router // nil when the anonymizer forwards to the lbsd directly
	anon *Anonymizer

	snapDir string
	closed  bool
}

// Boot brings up the database tier, the router when t.Shards ≥ 1, and the
// anonymizer forwarding to whichever of the two fronts the database tier.
// Services close without a drain, so KillDB is a crash, not a shutdown.
func Boot(t Topology) (_ *Stack, err error) {
	if t.Shards < 0 {
		return nil, fmt.Errorf("stack: negative shard count %d", t.Shards)
	}
	if t.Logf == nil {
		t.Logf = func(string, ...interface{}) {}
	}
	s := &Stack{topo: t}
	defer func() {
		if err != nil {
			s.Close()
		}
	}()
	if s.snapDir, err = os.MkdirTemp("", "lbsstack-snap-"); err != nil {
		return nil, err
	}
	var rtrTracer, anonTracer *trace.Tracer
	if t.Trace {
		anonTracer = trace.New(trace.Config{Process: "anonymizer"})
		if t.Shards > 0 {
			rtrTracer = trace.New(trace.Config{Process: "lbsrouter"})
		} else {
			s.tracer = trace.New(trace.Config{Process: "lbsd"})
		}
	}
	for i := 0; i < max(t.Shards, 1); i++ {
		srv, err := server.New(server.Config{World: World, Tracer: s.tracer})
		if err != nil {
			return nil, err
		}
		s.srvs, s.svcs, s.addrs = append(s.srvs, srv), append(s.svcs, nil), append(s.addrs, "127.0.0.1:0")
		if err := s.RestartShard(i); err != nil {
			return nil, err
		}
	}
	if t.Shards > 0 {
		links := Links{ShardCallTimeout, ShardRetries, ShardBreakAfter, ShardBreakCooldown}
		s.rtr, err = ServeRouter("127.0.0.1:0", s.addrs, links, router.Config{World: World},
			s.ops(obs.NewRegistry(), rtrTracer))
		if err != nil {
			return nil, err
		}
	}
	if t.ForwardQueue == 0 {
		t.ForwardQueue = ForwardQueue
	}
	s.anon, err = ServeAnonymizer("127.0.0.1:0",
		anonymizer.Config{World: World, Shards: runtime.GOMAXPROCS(0)}, // anonymizerd -shards
		Forward{Addr: s.DBAddr(), CallTimeout: ForwardCallTimeout, Queue: t.ForwardQueue,
			Backpressure: !t.NoBackpressure, Dialer: t.Dialer},
		s.ops(obs.NewRegistry(), anonTracer))
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Stack) ops(reg *obs.Registry, tr *trace.Tracer) Ops {
	return Ops{Metrics: reg, Tracer: tr, Logf: s.topo.Logf, MaxInflight: s.topo.MaxInflight}
}

// AnonAddr is the anonymizer's address: where mobile users connect.
func (s *Stack) AnonAddr() string { return s.anon.Svc.Addr() }

// DBAddr is the database tier's address — the router's when routed —
// where the anonymizer forwards and third parties query.
func (s *Stack) DBAddr() string {
	if s.rtr != nil {
		return s.rtr.Svc.Addr()
	}
	return s.addrs[0]
}

// Shards is the topology's shard count (0 when the lbsd is direct).
func (s *Stack) Shards() int { return s.topo.Shards }

// KillDB stops every database server's service, keeping its address and
// its in-memory state; when routed, the router stays up.
func (s *Stack) KillDB() {
	for i := range s.svcs {
		s.KillShard(i)
	}
}

// RestartDB rebinds every database server on its old address.
// fromSnapshot replaces each server with a new one restored from the last
// SaveSnapshot (a process restart); otherwise the servers come back with
// their in-memory state (a network outage).
func (s *Stack) RestartDB(fromSnapshot bool) error {
	for i := range s.svcs {
		if fromSnapshot {
			srv, err := server.New(server.Config{World: World, Tracer: s.tracer})
			if err != nil {
				return err
			}
			if err := srv.LoadSnapshot(s.snapPath(i)); err != nil {
				return fmt.Errorf("stack: restore shard %d: %w", i, err)
			}
			s.srvs[i] = srv
		}
		if err := s.RestartShard(i); err != nil {
			return err
		}
	}
	return nil
}

// SaveSnapshot persists every database server's state for RestartDB(true).
func (s *Stack) SaveSnapshot() error {
	for i, srv := range s.srvs {
		if err := srv.SaveSnapshot(s.snapPath(i)); err != nil {
			return err
		}
	}
	return nil
}

func (s *Stack) snapPath(i int) string {
	return filepath.Join(s.snapDir, fmt.Sprintf("lbsd-%d.snap", i))
}

// KillShard stops shard i's service (shard 0 is the lbsd when direct).
func (s *Stack) KillShard(i int) {
	if s.svcs[i] != nil {
		s.svcs[i].Close()
		s.svcs[i] = nil
	}
}

// RestartShard rebinds shard i on its old address with its state intact.
// Each server's service reports that server's own registry.
func (s *Stack) RestartShard(i int) error {
	if s.svcs[i] != nil {
		return fmt.Errorf("stack: shard %d already running", i)
	}
	srv := s.srvs[i]
	svc, err := ServeDatabase(s.addrs[i], srv, s.ops(srv.Registry(), s.tracer))
	if err != nil {
		return fmt.Errorf("stack: bind shard %d at %s: %w", i, s.addrs[i], err)
	}
	s.svcs[i], s.addrs[i] = svc, svc.Addr()
	return nil
}

// Close stops every tier, front to back, and removes the snapshots. It is
// safe to call more than once.
func (s *Stack) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.anon != nil {
		s.anon.Close()
	}
	if s.rtr != nil {
		s.rtr.Close()
	}
	s.KillDB()
	if s.snapDir != "" {
		os.RemoveAll(s.snapDir)
	}
}
