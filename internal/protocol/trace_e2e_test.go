package protocol

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"repro/internal/anonymizer"
	"repro/internal/geo"
	"repro/internal/privacy"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/trace"
)

// tracedStack is threeTier with a tracer in every process.
type tracedStack struct {
	cli, anonTr, dbTr *trace.Tracer
	user              *AnonymizerClient
	admin             *DatabaseClient
	anonAddr, dbAddr  string
	cleanup           func()
}

// tracedThreeTier brings up the Figure 1 deployment with a tracer in every
// process: the client tracer samples everything (it mints roots), while
// the daemon tracers run in propagation-only mode (Sample 0) exactly as
// stack.Boot wires them — they record only spans that arrive with
// the sampled flag set.
func tracedThreeTier(t *testing.T) tracedStack {
	t.Helper()
	cli := trace.New(trace.Config{Process: "client", Sample: 1})
	anonTr := trace.New(trace.Config{Process: "anonymizer"})
	dbTr := trace.New(trace.Config{Process: "lbsd"})

	srv, err := server.New(server.Config{World: world, Tracer: dbTr})
	if err != nil {
		t.Fatal(err)
	}
	dbSvc, err := ServeDatabase("127.0.0.1:0", srv, quiet, WithTracing(dbTr))
	if err != nil {
		t.Fatal(err)
	}
	fwd, err := DialDatabase(dbSvc.Addr(), WithClientTracing(anonTr))
	if err != nil {
		t.Fatal(err)
	}
	anon, err := anonymizer.New(anonymizer.Config{
		World:      world,
		Tracer:     anonTr,
		ForwardCtx: fwd.UpdatePrivateCtx,
	})
	if err != nil {
		t.Fatal(err)
	}
	anonSvc, err := ServeAnonymizer("127.0.0.1:0", anon, quiet, WithTracing(anonTr))
	if err != nil {
		t.Fatal(err)
	}
	user, err := DialAnonymizer(anonSvc.Addr(), WithClientTracing(cli))
	if err != nil {
		t.Fatal(err)
	}
	admin, err := DialDatabase(dbSvc.Addr(), WithClientTracing(cli))
	if err != nil {
		t.Fatal(err)
	}
	return tracedStack{
		cli: cli, anonTr: anonTr, dbTr: dbTr,
		user: user, admin: admin,
		anonAddr: anonSvc.Addr(), dbAddr: dbSvc.Addr(),
		cleanup: func() {
			user.Close()
			admin.Close()
			fwd.Close()
			anonSvc.Close()
			dbSvc.Close()
		},
	}
}

// One private query traced end to end: the client mints the root, the
// envelope carries the context across both TCP hops, and pulling the three
// span rings yields one merged timeline — client, anonymizer and database
// spans under a single trace id with a consistent parent/child tree.
func TestTracedQueryAcrossThreeTiers(t *testing.T) {
	st := tracedThreeTier(t)
	defer st.cleanup()
	cli, user, admin := st.cli, st.user, st.admin

	// Population so k=3 is satisfiable, plus public objects to query.
	prof := privacy.Constant(privacy.Requirement{K: 3})
	for id := uint64(1); id <= 5; id++ {
		if err := user.Register(id, prof); err != nil {
			t.Fatal(err)
		}
		if _, err := user.Update(id, geo.Pt(0.1*float64(id), 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := admin.LoadStationary([]server.PublicObject{
		{ID: 1, Class: "gas", Loc: geo.Pt(0.2, 0.4)},
		{ID: 2, Class: "gas", Loc: geo.Pt(0.8, 0.8)},
	}); err != nil {
		t.Fatal(err)
	}

	// The traced request: cloak at the anonymizer (which forwards the
	// refreshed region to the database), then the private NN against the
	// cloaked region — all under one client root span.
	root := cli.StartRoot("load_private_query")
	if !root.Recording() {
		t.Fatal("client root not sampled at rate 1")
	}
	ctx := trace.NewContext(context.Background(), root.Context())
	cres, err := user.CloakQueryCtx(ctx, 3, geo.Pt(0.3, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := admin.PrivateNNCtx(ctx, server.PrivateNNQuery{
		Region: cres.Region, Class: "gas",
	}); err != nil {
		t.Fatal(err)
	}
	root.End()
	traceID := root.Context().TraceID

	// Pull all three rings — the daemons' over the wire, exactly as
	// `lbssoak -trace` does — and merge.
	anonSpans, err := user.Traces()
	if err != nil {
		t.Fatal(err)
	}
	dbSpans, err := admin.Traces()
	if err != nil {
		t.Fatal(err)
	}
	merged := trace.Merge(cli.Snapshot(), anonSpans, dbSpans)

	var spans []trace.SpanRecord
	byID := map[uint64]trace.SpanRecord{}
	procs := map[string]bool{}
	names := map[string]bool{}
	for _, rec := range merged {
		if rec.TraceID != traceID {
			continue
		}
		spans = append(spans, rec)
		byID[rec.SpanID] = rec
		procs[rec.Proc] = true
		names[rec.Proc+"/"+rec.Name] = true
	}
	if len(spans) != len(byID) {
		t.Fatalf("duplicate span ids after merge: %d spans, %d unique", len(spans), len(byID))
	}
	for _, proc := range []string{"client", "anonymizer", "lbsd"} {
		if !procs[proc] {
			t.Fatalf("merged timeline missing %s spans: %v", proc, names)
		}
	}
	// The stages the request must have crossed, per tier.
	for _, want := range []string{
		"client/load_private_query", "client/proto_call",
		"anonymizer/proto_serve", "anonymizer/anon_admit", "anonymizer/anon_cloak",
		"anonymizer/anon_forward", "anonymizer/proto_call",
		"lbsd/proto_serve", "lbsd/lbs_update_private", "lbsd/lbs_private_nn",
	} {
		if !names[want] {
			t.Fatalf("merged timeline missing stage %s (have %v)", want, names)
		}
	}

	// Tree sanity: exactly one root, and every other span's parent chain
	// reaches it — including across the two process boundaries.
	var roots int
	for _, rec := range spans {
		if rec.ParentID == 0 {
			roots++
			if rec.Proc != "client" || rec.Name != "load_private_query" {
				t.Fatalf("unexpected root %s/%s", rec.Proc, rec.Name)
			}
		}
	}
	if roots != 1 {
		t.Fatalf("merged trace has %d roots, want 1", roots)
	}
	for _, rec := range spans {
		cur := rec
		for hops := 0; cur.ParentID != 0; hops++ {
			if hops > len(spans) {
				t.Fatalf("parent cycle at span %s/%s", rec.Proc, rec.Name)
			}
			parent, ok := byID[cur.ParentID]
			if !ok {
				t.Fatalf("span %s/%s parent %x not in the merged set",
					rec.Proc, rec.Name, cur.ParentID)
			}
			// Same host, so wall clocks agree: a child cannot start
			// meaningfully before its parent.
			if cur.Start < parent.Start-int64(time.Millisecond) {
				t.Fatalf("span %s/%s starts before its parent %s/%s",
					cur.Proc, cur.Name, parent.Proc, parent.Name)
			}
			cur = parent
		}
	}

	// The merged timeline exports as loadable Chrome trace JSON with all
	// three processes announced.
	var buf bytes.Buffer
	if err := trace.WriteChromeJSON(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("merged export is not valid JSON: %v", err)
	}
	meta := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			meta++
		}
	}
	if meta != 3 {
		t.Fatalf("export announces %d processes, want 3", meta)
	}
}

// A service built without WithTracing still unwraps the MsgTraced
// envelope: the wrapped request is answered byte-identically to the plain
// one, so a traced client needs no negotiation with its peer.
func TestUntracedServiceUnwrapsEnvelope(t *testing.T) {
	srv, err := server.New(server.Config{World: world})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := ServeDatabase("127.0.0.1:0", srv, quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	c, err := Dial(svc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sc := trace.SpanContext{TraceID: 7, SpanID: 5, Flags: trace.FlagSampled}
	got, err := c.Call(MsgTraced, encodeTraced(sc, MsgStats, nil))
	if err != nil {
		t.Fatalf("enveloped stats on an untraced service: %v", err)
	}
	want, err := c.Call(MsgStats, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("enveloped stats = %x, plain = %x", got, want)
	}

	// A traced client wraps every sampled call; the same service answers.
	tc, err := DialDatabase(svc.Addr(), WithClientTracing(trace.New(trace.Config{Process: "client", Sample: 1})))
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	if _, _, err := tc.Stats(); err != nil {
		t.Fatalf("traced client against an untraced service: %v", err)
	}
	// The ring pull stays a remote error on a peer without tracing.
	if _, err := tc.Traces(); !errors.Is(err, ErrRemote) {
		t.Fatalf("Traces() on an untraced service = %v, want remote error", err)
	}
}

// With no sampled context on the wire, propagation-only daemon tracers
// record nothing: tracing off is genuinely free of ring writes.
func TestUnsampledRequestsRecordNothing(t *testing.T) {
	st := tracedThreeTier(t)
	defer st.cleanup()
	anonTr, dbTr := st.anonTr, st.dbTr

	// Fresh un-traced connections: no envelope on the wire, so the
	// propagation-only daemon tracers see no sampled contexts at all.
	u2, err := DialAnonymizer(st.anonAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer u2.Close()
	a2, err := DialDatabase(st.dbAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	prof := privacy.Constant(privacy.Requirement{K: 2})
	for id := uint64(1); id <= 3; id++ {
		if err := u2.Register(id, prof); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := u2.Update(1, geo.Pt(0.4, 0.5)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a2.Stats(); err != nil {
		t.Fatal(err)
	}
	if n := len(anonTr.Snapshot()); n != 0 {
		t.Fatalf("anonymizer recorded %d spans for unsampled traffic", n)
	}
	if n := len(dbTr.Snapshot()); n != 0 {
		t.Fatalf("database recorded %d spans for unsampled traffic", n)
	}
}

// A routed deployment's shards run the query kernels, so that is where a
// routed query's kernel time must show: a traced private NN and a traced
// public count through lbsrouter over two lbsd shards each carry one
// lbs_* kernel span per contacted shard, parented (through the shard
// link's proto_call/proto_serve pair) under the router's scatter span.
func TestTracedRoutedQueryCarriesShardKernelSpans(t *testing.T) {
	cli := trace.New(trace.Config{Process: "client", Sample: 1})
	routerTr := trace.New(trace.Config{Process: "lbsrouter"})
	tracers := []*trace.Tracer{cli, routerTr}
	var links []router.Shard
	for _, proc := range []string{"lbsd0", "lbsd1"} {
		tr := trace.New(trace.Config{Process: proc})
		tracers = append(tracers, tr)
		srv, err := server.New(server.Config{World: world, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		svc, err := ServeDatabase("127.0.0.1:0", srv, quiet, WithTracing(tr))
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		link, err := DialDatabase(svc.Addr(), WithClientTracing(routerTr))
		if err != nil {
			t.Fatal(err)
		}
		defer link.Close()
		links = append(links, link)
	}
	rt, err := router.New(router.Config{World: world, Shards: links, Tracer: routerTr})
	if err != nil {
		t.Fatal(err)
	}
	rtSvc, err := ServeRouter("127.0.0.1:0", rt, quiet, WithTracing(routerTr))
	if err != nil {
		t.Fatal(err)
	}
	defer rtSvc.Close()
	admin, err := DialDatabase(rtSvc.Addr(), WithClientTracing(cli))
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	var objs []server.PublicObject
	for i := 0; i < 64; i++ {
		p := geo.Pt(0.06+0.125*float64(i%8), 0.06+0.125*float64(i/8))
		objs = append(objs, server.PublicObject{ID: uint64(i + 1), Class: "gas", Loc: p})
		if err := admin.UpdatePrivate(uint64(i+1), geo.RectAround(p, 0.05)); err != nil {
			t.Fatal(err)
		}
	}
	if err := admin.LoadStationary(objs); err != nil {
		t.Fatal(err)
	}

	// Both rectangles cover most of the world, so both shards own tiles
	// under them.
	wide := geo.R(0.1, 0.1, 0.9, 0.9)
	queries := []struct {
		kernel string
		run    func(ctx context.Context) error
	}{
		{"lbs_private_nn", func(ctx context.Context) error {
			_, err := admin.PrivateNNCtx(ctx, server.PrivateNNQuery{Region: wide, Class: "gas"})
			return err
		}},
		{"lbs_public_count", func(ctx context.Context) error {
			_, err := admin.PublicCountCtx(ctx, wide)
			return err
		}},
	}
	for _, q := range queries {
		root := cli.StartRoot("load_routed_query")
		if err := q.run(trace.NewContext(context.Background(), root.Context())); err != nil {
			t.Fatal(err)
		}
		root.End()

		var groups [][]trace.SpanRecord
		for _, tr := range tracers {
			groups = append(groups, tr.Snapshot())
		}
		byID := map[uint64]trace.SpanRecord{}
		for _, rec := range trace.Merge(groups...) {
			if rec.TraceID == root.Context().TraceID {
				byID[rec.SpanID] = rec
			}
		}
		// Contacted shards: the fan-out the scatter spans report.
		contacted := 0
		for _, rec := range byID {
			if rec.Name != "route_scatter" {
				continue
			}
			for _, a := range rec.Attrs {
				if a.Key == "fanout" {
					contacted += int(a.Int)
				}
			}
		}
		if contacted < 2 {
			t.Fatalf("%s: scatter spans report %d contacted shards, want both", q.kernel, contacted)
		}
		kernels := 0
		procs := map[string]bool{}
		for _, rec := range byID {
			if rec.Name != q.kernel {
				continue
			}
			kernels++
			procs[rec.Proc] = true
			underScatter := false
			for cur, ok := rec, true; ok && cur.ParentID != 0; {
				if cur, ok = byID[cur.ParentID]; ok && cur.Name == "route_scatter" {
					underScatter = true
					break
				}
			}
			if !underScatter {
				t.Errorf("%s span on %s is not under a route_scatter span", q.kernel, rec.Proc)
			}
		}
		if kernels != contacted {
			t.Errorf("%s: %d kernel spans for %d contacted shards", q.kernel, kernels, contacted)
		}
		if !procs["lbsd0"] || !procs["lbsd1"] {
			t.Errorf("%s: kernel spans recorded by %v, want both shards", q.kernel, procs)
		}
	}
}
