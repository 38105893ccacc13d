package protocol

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/anonymizer"
	"repro/internal/cloak"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/privacy"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/trace"
)

// Wire symmetry, end to end: for every request row of the messages table
// a generated value goes through the real typed stub, over loopback TCP,
// through the real Service and handler, into the real engine, and the
// reply comes back the same way. What the stub returns must equal what the
// engine answers when called directly, and what a write stub sent must be
// what the engine now holds. The three services run side by side — the
// anonymizer, lbsd, and lbsrouter over two further lbsd shards — and the
// message types lbsd and lbsrouter both answer run against both.

// loop is every service on loopback with its engine within reach.
type loop struct {
	anon *anonymizer.Anonymizer
	ac   *AnonymizerClient
	srv  *server.Server // the engine behind db
	db   *DatabaseClient
	rt   *router.Router // the engine behind rdb
	rdb  *DatabaseClient
	raw  *Client // a plain client on lbsd, for the Service-layer types
	reg  *obs.Registry
	tr   *trace.Tracer

	ids atomic.Uint64 // fresh user / object ids

	mu  sync.Mutex
	fwd map[uint64]geo.Rect // what the anonymizer last forwarded per user
}

func (l *loop) id() uint64 { return l.ids.Add(1) }

func (l *loop) forwarded(id uint64) geo.Rect {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fwd[id]
}

// dbEnd is one database-protocol service: its stub, and the engine the
// stub's calls land on.
type dbEnd struct {
	name string
	stub *DatabaseClient
	be   dbBackend
}

func (l *loop) dbEnds() []dbEnd {
	return []dbEnd{{"lbsd", l.db, localDB{l.srv}}, {"lbsrouter", l.rdb, l.rt}}
}

func startLoop(t *testing.T) *loop {
	t.Helper()
	l := &loop{fwd: make(map[uint64]geo.Rect), reg: obs.NewRegistry(), tr: trace.New(trace.Config{Process: "lbsd"})}
	l.ids.Store(1000)
	serveDB := func(opts ...Option) (*server.Server, *DatabaseClient) {
		srv, err := server.New(server.Config{World: world})
		if err != nil {
			t.Fatal(err)
		}
		svc, err := ServeDatabase("127.0.0.1:0", srv, quiet, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { svc.Close() })
		cli, err := DialDatabase(svc.Addr(), WithCallTimeout(10*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cli.Close() })
		return srv, cli
	}
	l.srv, l.db = serveDB(WithMetrics(l.reg), WithTracing(l.tr))
	l.raw = l.db.c

	_, shard0 := serveDB()
	_, shard1 := serveDB()
	var err error
	if l.rt, err = router.New(router.Config{World: world, Shards: []router.Shard{shard0, shard1}, Addrs: []string{"a:1", "b:2"}}); err != nil {
		t.Fatal(err)
	}
	rtSvc, err := ServeRouter("127.0.0.1:0", l.rt, quiet)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rtSvc.Close() })
	if l.rdb, err = DialDatabase(rtSvc.Addr(), WithCallTimeout(10*time.Second)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.rdb.Close() })

	l.anon, err = anonymizer.New(anonymizer.Config{
		World: world,
		Forward: func(id uint64, region geo.Rect) error {
			l.mu.Lock()
			defer l.mu.Unlock()
			l.fwd[id] = region
			return nil
		},
		Clock: func() time.Time { return time.Date(2026, 7, 4, 12, 0, 0, 0, time.UTC) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.anon.Close)
	anonSvc, err := ServeAnonymizer("127.0.0.1:0", l.anon, quiet)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { anonSvc.Close() })
	if l.ac, err = DialAnonymizer(anonSvc.Addr(), WithCallTimeout(10*time.Second)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.ac.Close() })

	// A small city on every tier, so queries have something to answer.
	g := gen{rng.New(99)}
	for _, end := range l.dbEnds() {
		if err := end.stub.LoadStationary(g.objects(200)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 60; i++ {
			if err := end.stub.UpdatePrivate(l.id(), g.rect()); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 20; i++ {
		l.user(t, g)
	}
	return l
}

// user registers a fresh k=2 user with the anonymizer and reports one
// location for it.
func (l *loop) user(t *testing.T, g gen) uint64 {
	t.Helper()
	id := l.id()
	if err := l.anon.Register(id, privacy.Constant(privacy.Requirement{K: 2})); err != nil {
		t.Fatal(err)
	}
	if _, err := l.anon.Update(id, g.point()); err != nil {
		t.Fatal(err)
	}
	return id
}

// same fails the test unless the stub's answer and the engine's agree,
// errors included.
func same(t *testing.T, what string, got interface{}, gotErr error, want interface{}, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (wantErr != nil && !strings.HasSuffix(gotErr.Error(), wantErr.Error())) {
		t.Fatalf("%s: stub error %v, engine error %v", what, gotErr, wantErr)
	}
	if show(got) != show(want) {
		t.Fatalf("%s: the two ends disagree:\n  stub %.400s\nengine %.400s", what, show(got), show(want))
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// stats reads an engine's counters directly.
func stats(t *testing.T, be dbBackend) [2]int {
	t.Helper()
	s, p, err := be.StatsCtx(context.Background())
	must(t, err)
	return [2]int{s, p}
}

// roundTrips holds one loopback case per request row of the messages
// table; TestMessageTableCensus fails on a row without one.
var roundTrips = map[byte]func(t *testing.T, l *loop, g gen){
	// Anonymizer service.
	MsgRegister: func(t *testing.T, l *loop, g gen) {
		id, before := l.id(), l.anon.Stats().Registered
		must(t, l.ac.Register(id, privacy.PaperExample()))
		if after := l.anon.Stats().Registered; after != before+1 {
			t.Fatalf("registered %d → %d", before, after)
		}
		if err := l.ac.Register(id, privacy.PaperExample()); err == nil {
			t.Fatal("the engine's duplicate-user error did not come back")
		}
	},
	MsgUpdate: func(t *testing.T, l *loop, g gen) {
		id, loc := l.user(t, g), g.point()
		res, err := l.ac.Update(id, loc)
		must(t, err)
		if !res.Region.Contains(loc) || res.K < 2 || res.Region != l.forwarded(id) {
			t.Fatalf("update of %v answered %+v; the engine forwarded %v", loc, res, l.forwarded(id))
		}
	},
	MsgCloakQuery: func(t *testing.T, l *loop, g gen) {
		id, loc := l.user(t, g), g.point()
		got, gotErr := l.ac.CloakQuery(id, loc)
		want, wantErr := l.anon.CloakQuery(id, loc)
		same(t, "cloak query", got, gotErr, want, wantErr)
		if !got.Region.Contains(loc) {
			t.Fatalf("cloak of %v is %v", loc, got.Region)
		}
	},
	MsgDeregister: func(t *testing.T, l *loop, g gen) {
		id := l.user(t, g)
		must(t, l.ac.Deregister(id))
		if _, err := l.anon.Mode(id); err == nil {
			t.Fatal("user still registered")
		}
	},
	MsgSetMode: func(t *testing.T, l *loop, g gen) {
		id := l.user(t, g)
		must(t, l.ac.SetMode(id, privacy.Passive))
		if m, err := l.anon.Mode(id); err != nil || m != privacy.Passive {
			t.Fatalf("mode %v, %v", m, err)
		}
	},
	MsgBatchUpdate: func(t *testing.T, l *loop, g gen) {
		reqs := []cloak.Request{{ID: l.user(t, g), Loc: g.point()}, {ID: l.id(), Loc: g.point()}, {ID: l.user(t, g), Loc: g.point()}}
		res, err := l.ac.BatchUpdate(reqs)
		must(t, err)
		if len(res) != 3 || res[0] == nil || res[1] != nil || res[2] == nil {
			t.Fatalf("batch answered %v; entry 1 is an unknown user", res)
		}
		for _, i := range []int{0, 2} {
			if !res[i].Region.Contains(reqs[i].Loc) || res[i].Region != l.forwarded(reqs[i].ID) {
				t.Fatalf("entry %d at %v answered %+v; the engine forwarded %v", i, reqs[i].Loc, *res[i], l.forwarded(reqs[i].ID))
			}
		}
	},
	MsgAnonStats: func(t *testing.T, l *loop, g gen) {
		got, err := l.ac.Stats()
		same(t, "anonymizer stats", got, err, l.anon.Stats(), nil)
	},
	MsgUpdateProfile: func(t *testing.T, l *loop, g gen) {
		id := l.user(t, g)
		must(t, l.ac.UpdateProfile(id, privacy.Constant(privacy.Requirement{K: 9})))
		if res, err := l.anon.Update(id, g.point()); err != nil || res.K < 9 {
			t.Fatalf("after raising k to 9 the engine cloaks with k=%d, %v", res.K, err)
		}
	},

	// Database protocol, answered by lbsd and lbsrouter alike.
	MsgUpdatePrivate: func(t *testing.T, l *loop, g gen) {
		for _, end := range l.dbEnds() {
			id, region, before := l.id(), g.rect(), stats(t, end.be)
			must(t, end.stub.UpdatePrivate(id, region))
			if after := stats(t, end.be); after[1] != before[1]+1 {
				t.Fatalf("%s: private users %d → %d", end.name, before[1], after[1])
			}
			if got, ok := l.srv.PrivateRegion(id); end.be == (localDB{l.srv}) && (!ok || got != region) {
				t.Fatalf("%s: sent %v, the engine holds %v", end.name, region, got)
			}
		}
	},
	MsgRemovePrivate: func(t *testing.T, l *loop, g gen) {
		for _, end := range l.dbEnds() {
			id := l.id()
			must(t, end.stub.UpdatePrivate(id, g.rect()))
			before := stats(t, end.be)
			must(t, end.stub.RemovePrivate(id))
			if after := stats(t, end.be); after[1] != before[1]-1 {
				t.Fatalf("%s: private users %d → %d", end.name, before[1], after[1])
			}
		}
	},
	MsgLoadStationary: func(t *testing.T, l *loop, g gen) {
		for _, end := range l.dbEnds() {
			objs := g.objects(150 + g.r.Intn(50)) // a bulk load replaces the set
			objs[3].Class = longClass
			must(t, end.stub.LoadStationary(objs))
			if after := stats(t, end.be); after[0] != len(objs) {
				t.Fatalf("%s: loaded %d stationary objects, the engine holds %d", end.name, len(objs), after[0])
			}
			got, err := end.stub.PrivateRange(server.PrivateRangeQuery{Region: world, Class: longClass})
			if err != nil || len(got) != 1 || got[0] != objs[3] {
				t.Fatalf("%s: loaded %+v, read back %+v, %v", end.name, objs[3].ID, got, err)
			}
		}
	},
	MsgPrivateRange: func(t *testing.T, l *loop, g gen) {
		for _, end := range l.dbEnds() {
			for _, q := range []server.PrivateRangeQuery{g.rangeQuery(), g.rangeQuery(), {Region: g.rect(), Radius: -1}} {
				got, gotErr := end.stub.PrivateRange(q)
				want, wantErr := end.be.PrivateRangeCtx(context.Background(), q)
				same(t, end.name+" private range", got, gotErr, want, wantErr)
			}
		}
	},
	MsgPrivateNN: func(t *testing.T, l *loop, g gen) {
		for _, end := range l.dbEnds() {
			for _, q := range []server.PrivateNNQuery{g.nnQuery(), g.nnQuery(), {Region: geo.R(2, 2, 1, 1)}} {
				got, gotErr := end.stub.PrivateNN(q)
				want, wantErr := end.be.PrivateNNCtx(context.Background(), q)
				same(t, end.name+" private NN", got, gotErr, want, wantErr)
			}
		}
	},
	MsgPublicCount: func(t *testing.T, l *loop, g gen) {
		for _, end := range l.dbEnds() {
			for _, q := range []geo.Rect{g.rect(), world, geo.R(2, 2, 1, 1)} {
				got, gotErr := end.stub.PublicCount(q)
				want, wantErr := end.be.PublicCountCtx(context.Background(), server.PublicRangeCountQuery{Query: q})
				same(t, end.name+" public count", got, gotErr, want, wantErr)
			}
		}
	},
	MsgBatchQuery: func(t *testing.T, l *loop, g gen) {
		for _, end := range l.dbEnds() {
			entries := append(g.entries(24), server.BatchEntry{Kind: server.BatchPrivateRange, Range: server.PrivateRangeQuery{Region: g.rect(), Radius: -1}})
			got, gotErr := end.stub.BatchQuery(entries)
			want, wantErr := end.be.BatchQueryCtx(context.Background(), entries)
			// Memo hits depend on what ran before; the answers do not.
			got.SharedHits, want.SharedHits = 0, 0
			same(t, end.name+" batch query", got, gotErr, want, wantErr)
			if got.Items[24].Err == nil {
				t.Fatalf("%s: the invalid entry's error did not come back", end.name)
			}
		}
	},
	MsgUpdateMoving: func(t *testing.T, l *loop, g gen) {
		for _, end := range l.dbEnds() {
			id := l.id()
			must(t, end.stub.UpdateMoving(id, g.point()))
			if existed, err := end.be.RemoveMovingCtx(context.Background(), id); err != nil || !existed {
				t.Fatalf("%s: the engine holds no moving object %d (%v)", end.name, id, err)
			}
			if err := end.stub.UpdateMoving(id, geo.Pt(7, 7)); err == nil {
				t.Fatalf("%s: the engine's out-of-world error did not come back", end.name)
			}
		}
	},
	MsgRemoveMoving: func(t *testing.T, l *loop, g gen) {
		for _, end := range l.dbEnds() {
			id := l.id()
			must(t, end.be.UpdateMovingCtx(context.Background(), id, g.point()))
			for _, want := range []bool{true, false} {
				if existed, err := end.stub.RemoveMoving(id); err != nil || existed != want {
					t.Fatalf("%s: remove answered %v, %v; want %v", end.name, existed, err, want)
				}
			}
		}
	},
	MsgStats: func(t *testing.T, l *loop, g gen) {
		for _, end := range l.dbEnds() {
			s, p, err := end.stub.Stats()
			same(t, end.name+" stats", [2]int{s, p}, err, stats(t, end.be), nil)
		}
	},

	// lbsd only: the single-node types and the shard-local halves.
	MsgPublicNN: func(t *testing.T, l *loop, g gen) {
		for _, q := range []server.PublicNNQuery{{From: g.point(), Samples: 200, Seed: 5}, {From: g.point()}, {From: geo.Pt(9, 9)}} {
			got, gotErr := l.db.PublicNN(q)
			want, wantErr := l.srv.PublicNN(q)
			same(t, "public NN", got, gotErr, want, wantErr)
		}
	},
	MsgRegContCount: func(t *testing.T, l *loop, g gen) {
		id, err := l.db.RegisterContinuousCount(g.rect())
		must(t, err)
		if _, ok := l.srv.ContinuousCount(id); !ok {
			t.Fatalf("the engine holds no continuous query %d", id)
		}
	},
	MsgContCount: func(t *testing.T, l *loop, g gen) {
		id, err := l.srv.RegisterContinuousCount(world)
		must(t, err)
		got, gotErr := l.db.ContinuousCount(id)
		want, _ := l.srv.ContinuousCount(id)
		same(t, "continuous count", got, gotErr, want, nil)
		if _, err := l.db.ContinuousCount(id + 1000); err == nil {
			t.Fatal("an unknown continuous query was answered")
		}
	},
	MsgUnregContCount: func(t *testing.T, l *loop, g gen) {
		id, err := l.srv.RegisterContinuousCount(g.rect())
		must(t, err)
		must(t, l.db.UnregisterContinuousCount(id))
		if _, ok := l.srv.ContinuousCount(id); ok {
			t.Fatalf("the engine still holds continuous query %d", id)
		}
	},
	MsgNNParts: func(t *testing.T, l *loop, g gen) {
		q := g.nnQuery()
		got, gotErr := l.db.NNPartsCtx(context.Background(), q)
		want, wantErr := l.srv.PrivateNNPartsCtx(context.Background(), q)
		same(t, "NN parts", got, gotErr, want, wantErr)
	},
	MsgCountProbs: func(t *testing.T, l *loop, g gen) {
		q := server.PublicRangeCountQuery{Query: g.rect()}
		got, gotErr := l.db.CountProbsCtx(context.Background(), q)
		want, wantErr := l.srv.PublicCountProbsCtx(context.Background(), q)
		same(t, "count probs", got, gotErr, want, wantErr)
	},
	MsgShardBatch: func(t *testing.T, l *loop, g gen) {
		var subs []router.SubQuery
		for i, be := range append(g.entries(12), server.BatchEntry{Kind: server.BatchPrivateRange, Range: server.PrivateRangeQuery{Region: g.rect(), Radius: -1}}) {
			subs = append(subs, router.SubQuery{Index: 3 * i, Entry: be})
		}
		got, err := l.db.ShardBatchCtx(context.Background(), subs)
		want := evalSubQueries(context.Background(), l.srv, subs)
		if want[12].Err == "" {
			t.Fatal("the engine accepted the invalid entry")
		}
		want[12].Kind = 0 // a failed entry travels as its cause alone
		same(t, "shard batch", got, err, want, nil)
	},

	// lbsrouter only.
	MsgShardMap: func(t *testing.T, l *loop, g gen) {
		got, err := l.rdb.ShardMap()
		same(t, "shard map", got, err, l.rt.Topology(), nil)
	},

	// The Service layer, on any instrumented and traced service.
	MsgMetrics: func(t *testing.T, l *loop, g gen) {
		got, err := l.raw.Metrics()
		must(t, err)
		// The registry only grows, so every series the wire carried is still
		// there, with the same help and kind.
		held := make(map[string]obs.MetricSnapshot)
		for _, s := range l.reg.Export() {
			held[s.Name+show(s.Labels)] = s
		}
		if len(got) == 0 {
			t.Fatal("no series over the wire")
		}
		for _, s := range got {
			if w, ok := held[s.Name+show(s.Labels)]; !ok || w.Help != s.Help || w.Kind != s.Kind || len(w.Hist.Bounds) != len(s.Hist.Bounds) {
				t.Fatalf("series %s%v over the wire; the registry holds %+v", s.Name, s.Labels, w)
			}
		}
	},
	MsgTraced: tracedRoundTrip,
	MsgTraces: func(t *testing.T, l *loop, g gen) {
		tracedRoundTrip(t, l, g) // something to pull
		got, err := l.raw.Traces()
		same(t, "span ring", got, err, l.tr.Snapshot(), nil)
	},
}

// tracedRoundTrip sends a request inside the tracing envelope by hand.
func tracedRoundTrip(t *testing.T, l *loop, g gen) {
	sc := trace.SpanContext{TraceID: g.r.Uint64() | 1, SpanID: 5, Flags: trace.FlagSampled}
	got, gotErr := l.raw.Call(MsgTraced, encodeTraced(sc, MsgStats, nil))
	want, wantErr := l.raw.Call(MsgStats, nil)
	same(t, "enveloped stats", got, gotErr, want, wantErr)
	for _, rec := range l.tr.Snapshot() {
		if rec.TraceID == sc.TraceID && rec.ParentID == sc.SpanID && rec.Name == "proto_serve" {
			return
		}
	}
	t.Fatalf("no proto_serve span under trace %x", sc.TraceID)
}

func TestEveryRequestRoundTripsOnLoopback(t *testing.T) {
	l := startLoop(t)
	for typ, run := range roundTrips {
		typ, run := typ, run
		t.Run(MessageName(typ), func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				run(t, l, gen{rng.New(seed<<8 | uint64(typ))})
			}
		})
	}
}
