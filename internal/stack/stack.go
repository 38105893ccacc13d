// Package stack is the one place the deployment of Figure 1 — client →
// Location Anonymizer → database server — is put together. It has one
// constructor per tier (ServeDatabase, ServeRouter, ServeAnonymizer), each
// holding the link and service defaults the daemons run with, and Boot,
// which composes the three tiers on loopback TCP from a Topology value
// and owns the outage levers (kill, restart, snapshot) the soak pulls.
//
// The daemons (lbsd, lbsrouter, anonymizerd) are flag parsing, one tier
// constructor and the shared Daemon ops tail; the soak engine, lbsbench
// and the networked example boot through Boot.
package stack

import (
	"net"
	"time"

	"repro/internal/anonymizer"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/trace"
)

// The daemons' link defaults: anonymizerd's forward link and spill queue,
// lbsrouter's shard links. The daemon flags default to these values and
// Boot uses them unchanged.
const (
	ForwardCallTimeout = 5 * time.Second // anonymizerd -call-timeout
	ForwardQueue       = 1024            // anonymizerd -forward-queue
	ShardCallTimeout   = 2 * time.Second // lbsrouter -call-timeout
	ShardRetries       = 2               // lbsrouter -retries
	ShardBreakAfter    = 5               // lbsrouter -break-after
	ShardBreakCooldown = 500 * time.Millisecond
)

// Ops is what every tier's service shares: the registry its proto_*
// series (and the tier's own) land in, its tracer, its log, and its
// admission and connection limits. Zero fields mean off / unlimited; a
// nil Logf logs through log.Printf.
type Ops struct {
	Metrics      *obs.Registry
	Tracer       *trace.Tracer
	Logf         func(string, ...interface{})
	MaxInflight  int           // admission budget (0 = admission off)
	MaxConns     int           // concurrent connections (0 = unlimited)
	ReadTimeout  time.Duration // idle-connection reaper (0 = never)
	DrainTimeout time.Duration // shutdown grace (0 = force-close at once)
}

func (o Ops) options() []protocol.Option {
	return []protocol.Option{
		protocol.WithMetrics(o.Metrics),
		protocol.WithTracing(o.Tracer),
		protocol.WithAdmission(o.MaxInflight),
		protocol.WithMaxConns(o.MaxConns),
		protocol.WithReadTimeout(o.ReadTimeout),
		protocol.WithDrainTimeout(o.DrainTimeout),
	}
}

// ServeDatabase serves srv as the database tier (lbsd) on addr.
func ServeDatabase(addr string, srv *server.Server, o Ops) (*protocol.Service, error) {
	return protocol.ServeDatabase(addr, srv, o.Logf, o.options()...)
}

// Links are the router's shard-link settings.
type Links struct {
	CallTimeout   time.Duration
	Retries       int
	BreakAfter    int // consecutive failures that open the breaker (0 = no breaker)
	BreakCooldown time.Duration
}

// Router is the served routing tier (lbsrouter).
type Router struct {
	*router.Router
	Svc   *protocol.Service
	links []*protocol.DatabaseClient
}

// ServeRouter dials every shard with l — lazily, so a shard that is down
// at startup costs only the queries touching its tiles — builds the
// router of cfg over those links and serves it on addr. The links' client
// series and spans, and the router's route_* series, go to o's registry
// and tracer; cfg.Shards, Addrs, Metrics and Tracer are filled in here.
func ServeRouter(addr string, shards []string, l Links, cfg router.Config, o Ops) (*Router, error) {
	opts := []protocol.DialOption{
		protocol.WithLazyDial(),
		protocol.WithCallTimeout(l.CallTimeout),
		protocol.WithRetries(l.Retries),
		protocol.WithClientMetrics(o.Metrics),
		protocol.WithClientTracing(o.Tracer),
	}
	if l.BreakAfter > 0 {
		opts = append(opts, protocol.WithBreaker(l.BreakAfter, l.BreakCooldown))
	}
	r := &Router{}
	cfg.Shards = make([]router.Shard, len(shards))
	for i, a := range shards {
		link, err := protocol.DialDatabase(a, opts...)
		if err != nil {
			r.Close()
			return nil, err
		}
		r.links = append(r.links, link)
		cfg.Shards[i] = link
	}
	cfg.Addrs, cfg.Metrics, cfg.Tracer = shards, o.Metrics, o.Tracer
	var err error
	if r.Router, err = router.New(cfg); err == nil {
		r.Svc, err = protocol.ServeRouter(addr, r.Router, o.Logf, o.options()...)
	}
	if err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// Close stops the service, then the shard links.
func (r *Router) Close() {
	if r.Svc != nil {
		r.Svc.Close()
	}
	for _, l := range r.links {
		l.Close()
	}
}

// Forward is the anonymizer's link to the database tier.
type Forward struct {
	Addr         string // database tier address ("" = do not forward)
	CallTimeout  time.Duration
	Queue        int  // spill-queue capacity (0 = a forward failure fails the update)
	Backpressure bool // reject updates typed on a full queue instead of evicting older ones
	// Dialer replaces the link's transport (nil = plain TCP): the seam a
	// fault plan uses to slow the link down.
	Dialer func(addr string) (net.Conn, error)
}

// Anonymizer is the served anonymizer tier (anonymizerd).
type Anonymizer struct {
	*anonymizer.Anonymizer
	Svc  *protocol.Service
	link *protocol.DatabaseClient
}

// ServeAnonymizer builds the anonymizer of cfg forwarding over f and
// serves it on addr. The forward link dials lazily, so a database that is
// down at startup or goes away costs forwards, never the anonymizer; a
// failed forward spills into the queue and replays once the link is back.
// The link's client series and spans, and the anon_* series, go to o's
// registry and tracer; cfg's Forward fields, Metrics and Tracer are
// filled in here.
func ServeAnonymizer(addr string, cfg anonymizer.Config, f Forward, o Ops) (*Anonymizer, error) {
	a := &Anonymizer{}
	if f.Addr != "" {
		opts := []protocol.DialOption{
			protocol.WithLazyDial(),
			protocol.WithCallTimeout(f.CallTimeout),
			protocol.WithClientMetrics(o.Metrics),
			protocol.WithClientTracing(o.Tracer),
			protocol.WithDialer(f.Dialer),
		}
		var err error
		if a.link, err = protocol.DialDatabase(f.Addr, opts...); err != nil {
			return nil, err
		}
		cfg.ForwardCtx = a.link.UpdatePrivateCtx // anonymizer.New adapts it for the spill replay
		cfg.ForwardQueue, cfg.ForwardBackpressure = f.Queue, f.Backpressure
	}
	cfg.Metrics, cfg.Tracer = o.Metrics, o.Tracer
	var err error
	if a.Anonymizer, err = anonymizer.New(cfg); err == nil {
		a.Svc, err = protocol.ServeAnonymizer(addr, a.Anonymizer, o.Logf, o.options()...)
	}
	if err != nil {
		a.Close()
		return nil, err
	}
	return a, nil
}

// Close stops the service, then the anonymizer (its replay loop), then
// the forward link.
func (a *Anonymizer) Close() {
	if a.Svc != nil {
		a.Svc.Close()
	}
	if a.Anonymizer != nil {
		a.Anonymizer.Close()
	}
	if a.link != nil {
		a.link.Close()
	}
}
