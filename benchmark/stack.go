package main

import (
	"runtime"
	"time"

	"repro/internal/anonymizer"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/router"
	"repro/internal/server"
)

// callTimeout bounds every call the benchmark or the stack's own links
// make; nothing on loopback comes near it, so a hit means a wedged tier.
const callTimeout = 30 * time.Second

func quiet(string, ...interface{}) {}

// stack is the deployment under test: client → anonymizerd → lbsd, the
// database tier optionally an lbsrouter over several lbsd shards — built
// in-process on loopback TCP through the constructors the daemons use,
// with the daemons' defaults. A non-nil tap interposes the benchmark's
// decorators at the public seams (dialer, forward closure, shard links);
// with a nil tap every seam gets the program's own default.
type stack struct {
	srvs    []*server.Server // one, or one per shard
	dbSvcs  []*protocol.Service
	links   []*protocol.DatabaseClient // router → shard
	rtr     *router.Router
	rtrSvc  *protocol.Service
	fwd     *protocol.DatabaseClient // anonymizer → database tier
	anon    *anonymizer.Anonymizer
	anonSvc *protocol.Service

	anonAddr, dbAddr string
	tap              *tap
}

func bootStack(sp spec, tp *tap) (st *stack, err error) {
	st = &stack{tap: tp}
	defer func() {
		if err != nil {
			st.Close()
		}
	}()
	nsrv := max(sp.shards, 1)
	for i := 0; i < nsrv; i++ {
		reg := obs.NewRegistry()
		srv, err := server.New(server.Config{World: world, Metrics: reg})
		if err != nil {
			return nil, err
		}
		svc, err := protocol.ServeDatabase("127.0.0.1:0", srv, quiet, protocol.WithMetrics(reg))
		if err != nil {
			return nil, err
		}
		st.srvs = append(st.srvs, srv)
		st.dbSvcs = append(st.dbSvcs, svc)
	}
	st.dbAddr = st.dbSvcs[0].Addr()
	if sp.shards > 0 {
		reg := obs.NewRegistry()
		shards := make([]router.Shard, sp.shards)
		addrs := make([]string, sp.shards)
		for i, svc := range st.dbSvcs {
			addrs[i] = svc.Addr()
			link, err := protocol.DialDatabase(svc.Addr(), protocol.WithCallTimeout(callTimeout),
				protocol.WithLazyDial(), protocol.WithClientMetrics(reg), protocol.WithDialer(tp.dialer(linkShard)))
			if err != nil {
				return nil, err
			}
			st.links = append(st.links, link)
			shards[i] = link
			if tp != nil {
				shards[i] = &shardTap{Shard: link, tap: tp, shard: i}
			}
		}
		st.rtr, err = router.New(router.Config{World: world, Shards: shards, Addrs: addrs, Metrics: reg})
		if err != nil {
			return nil, err
		}
		st.rtrSvc, err = protocol.ServeRouter("127.0.0.1:0", st.rtr, quiet, protocol.WithMetrics(reg))
		if err != nil {
			return nil, err
		}
		st.dbAddr = st.rtrSvc.Addr()
	}

	reg := obs.NewRegistry()
	st.fwd, err = protocol.DialDatabase(st.dbAddr, protocol.WithCallTimeout(callTimeout),
		protocol.WithLazyDial(), protocol.WithClientMetrics(reg), protocol.WithDialer(tp.dialer(linkForward)))
	if err != nil {
		return nil, err
	}
	forward := st.fwd.UpdatePrivateCtx
	if tp != nil {
		forward = tp.forward(st.fwd.UpdatePrivateCtx)
	}
	st.anon, err = anonymizer.New(anonymizer.Config{
		World:               world,
		Incremental:         true,
		Shards:              runtime.GOMAXPROCS(0),
		BatchWorkers:        runtime.GOMAXPROCS(0),
		Forward:             st.fwd.UpdatePrivate,
		ForwardCtx:          forward,
		ForwardQueue:        1024,
		ForwardBackpressure: true,
		Metrics:             reg,
	})
	if err != nil {
		return nil, err
	}
	st.anonSvc, err = protocol.ServeAnonymizer("127.0.0.1:0", st.anon, quiet, protocol.WithMetrics(reg))
	if err != nil {
		return nil, err
	}
	st.anonAddr = st.anonSvc.Addr()
	return st, nil
}

// Close stops every tier; each Service.Close waits for its goroutines.
func (st *stack) Close() {
	if st.anonSvc != nil {
		st.anonSvc.Close()
	}
	if st.anon != nil {
		st.anon.Close()
	}
	if st.fwd != nil {
		st.fwd.Close()
	}
	if st.rtrSvc != nil {
		st.rtrSvc.Close()
	}
	for _, l := range st.links {
		l.Close()
	}
	for _, s := range st.dbSvcs {
		s.Close()
	}
}

// conn is one client goroutine's pair of connections.
type conn struct {
	anon *protocol.AnonymizerClient
	db   *protocol.DatabaseClient
}

func (st *stack) dial() (*conn, error) {
	opts := []protocol.DialOption{protocol.WithCallTimeout(callTimeout), protocol.WithDialer(st.tap.dialer(linkClient))}
	ac, err := protocol.DialAnonymizer(st.anonAddr, opts...)
	if err != nil {
		return nil, err
	}
	dc, err := protocol.DialDatabase(st.dbAddr, opts...)
	if err != nil {
		ac.Close()
		return nil, err
	}
	return &conn{anon: ac, db: dc}, nil
}

func (c *conn) Close() {
	c.anon.Close()
	c.db.Close()
}

// programCounts is what the program itself counted, read from outside
// through Stats(), Metrics() and the registries: the inputs of the
// "program-made" per-layer ratios.
type programCounts struct {
	anon                        anonymizer.Stats
	batches, entries, shared    uint64
	nnCandSum, nodeVisitSum     float64
	nnCandCount, nodeVisitCount uint64
}

func (st *stack) counts() programCounts {
	pc := programCounts{anon: st.anon.Stats()}
	for _, srv := range st.srvs {
		m := srv.Metrics()
		pc.batches += m.Batches
		pc.entries += m.BatchEntries
		pc.shared += m.BatchSharedHits
		if s, ok := srv.Registry().Find("lbs_private_nn_candidates"); ok {
			pc.nnCandSum += s.Hist.Sum
			pc.nnCandCount += s.Hist.Count()
		}
		if s, ok := srv.Registry().Find("lbs_index_node_visits"); ok {
			pc.nodeVisitSum += s.Hist.Sum
			pc.nodeVisitCount += s.Hist.Count()
		}
	}
	return pc
}
