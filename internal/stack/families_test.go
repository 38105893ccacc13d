package stack_test

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"net"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cloak"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/privacy"
	"repro/internal/protocol"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/stack"
	"repro/internal/trace"
)

// TestTierFamilies pins the observability namespace to the tiers. A name's
// family is its first underscore-separated segment. Every process of a
// booted deployment exports series and records spans of its own tier's
// family and of the shared proto family only. Every span name that the
// tier packages and the scenario engine start is recorded by the traffic
// driven here, so a name moved into another tier's family fails here, and
// so does a new span that no traced path reaches.
func TestTierFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two deployments and drives a scenario through one")
	}
	recorded := make(map[string]bool)
	for _, tc := range []struct {
		name  string
		topo  stack.Topology
		front string // the database tier's front process
		fam   string
	}{
		// Admission 1 and a one-region spill queue, so that one held
		// forward makes the anonymizer shed and one dead database fills
		// the queue.
		{"direct", stack.Topology{Trace: true, MaxInflight: 1, ForwardQueue: 1}, "lbsd", "lbs"},
		{"routed", stack.Topology{Shards: 2, Trace: true}, "lbsrouter", "route"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := &gate{blocked: make(chan struct{}), release: make(chan struct{})}
			tc.topo.Dialer = g.dial
			st, err := stack.Boot(tc.topo)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			tr := trace.New(trace.Config{Process: "client", Sample: 1})
			opts := []protocol.DialOption{protocol.WithClientTracing(tr),
				protocol.WithRetries(1), protocol.WithRetryBackoff(time.Millisecond, 10*time.Millisecond)}
			ac, err := protocol.DialAnonymizer(st.AnonAddr(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer ac.Close()
			dc, err := protocol.DialDatabase(st.DBAddr(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer dc.Close()

			driveEveryRequest(t, ac, dc, tc.front == "lbsrouter")
			var client [][]trace.SpanRecord
			if tc.front == "lbsd" {
				overload(t, st, g, ac)
			} else {
				client = driveScenario(t, st)
			}
			front, frontSpans := pull(t, dc.Metrics, dc.Traces)
			if tc.front == "lbsd" {
				// The front is gone now; the anonymizer sheds on its full
				// spill queue, and the client backs off before its retry.
				st.KillDB()
				if _, err := ac.Update(1, geo.Pt(0.5, 0.5)); err != nil {
					t.Fatalf("update into the spill queue: %v", err)
				}
				if _, err := ac.Update(2, geo.Pt(0.5, 0.5)); !errors.Is(err, protocol.ErrOverloaded) {
					t.Fatalf("update on a full spill queue: err = %v, want overloaded", err)
				}
				if _, err := dc.PublicCount(stack.World); err == nil {
					t.Fatal("public count answered by a killed database")
				}
			}
			anon, anonSpans := pull(t, ac.Metrics, ac.Traces)

			for _, p := range []struct {
				proc   string
				series []obs.MetricSnapshot
				spans  []trace.SpanRecord
				fam    string
			}{{"anonymizer", anon, anonSpans, "anon"}, {tc.front, front, frontSpans, tc.fam}} {
				want := []string{p.fam, "proto"}
				sort.Strings(want)
				var names []string
				for _, s := range p.series {
					names = append(names, s.Name)
				}
				if got := families(names); !equal(got, want) {
					t.Errorf("%s exports families %v, want %v", p.proc, got, want)
				}
				names = names[:0]
				for _, s := range p.spans {
					if s.Proc != p.proc {
						t.Errorf("%s ring holds a span of %s", p.proc, s.Proc)
					}
					names = append(names, s.Name)
				}
				if got := families(names); !equal(got, want) {
					t.Errorf("%s records families %v, want %v", p.proc, got, want)
				}
			}
			for _, spans := range append(client, tr.Snapshot(), anonSpans, frontSpans) {
				for _, s := range spans {
					recorded[s.Name] = true
				}
			}
		})
	}
	if t.Failed() {
		return
	}
	declared := spanNames(t, "protocol", "server", "anonymizer", "router", "scenario")
	if len(declared) < 25 {
		t.Fatalf("found %d span names in the source, want the full set: %v", len(declared), declared)
	}
	for _, name := range declared {
		if !recorded[name] {
			t.Errorf("span %s is started in the source but recorded by no traced case here", name)
		}
	}
}

// driveEveryRequest sends every request type of both tiers through the
// traced clients: registration and updates (single and batched), cloak
// queries, profile and mode changes, every query kind single and batched,
// moving objects and the stats reads; then the shard map of a router, or
// what only a single lbsd serves (public NN and continuous counts).
func driveEveryRequest(t *testing.T, ac *protocol.AnonymizerClient, dc *protocol.DatabaseClient, routed bool) {
	t.Helper()
	must := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	objs := make([]server.PublicObject, 40)
	for i := range objs {
		objs[i] = server.PublicObject{ID: uint64(i + 1), Class: "poi", Loc: spot(uint64(100 + i))}
	}
	must("load", dc.LoadStationary(objs))
	prof := privacy.Constant(privacy.Requirement{K: 5})
	var batch []cloak.Request
	for id := uint64(1); id <= 40; id++ {
		must("register", ac.Register(id, prof))
		if id%2 == 0 {
			batch = append(batch, cloak.Request{ID: id, Loc: spot(id)})
			continue
		}
		_, err := ac.Update(id, spot(id))
		must("update", err)
	}
	_, err := ac.BatchUpdate(batch)
	must("batch update", err)
	res, err := ac.CloakQuery(3, spot(3))
	must("cloak query", err)
	must("update profile", ac.UpdateProfile(3, prof))
	must("set mode", ac.SetMode(5, privacy.Active))
	must("register 99", ac.Register(99, prof))
	must("deregister 99", ac.Deregister(99))
	_, err = ac.Stats()
	must("anonymizer stats", err)

	region, class := res.Region, "poi"
	_, err = dc.PrivateRange(server.PrivateRangeQuery{Region: region, Radius: 0.1, Class: class})
	must("private range", err)
	_, err = dc.PrivateNN(server.PrivateNNQuery{Region: region, Class: class})
	must("private nn", err)
	_, err = dc.PublicCount(stack.World)
	must("public count", err)
	_, err = dc.BatchQuery([]server.BatchEntry{
		{Kind: server.BatchPrivateRange, Range: server.PrivateRangeQuery{Region: region, Radius: 0.1, Class: class}},
		{Kind: server.BatchPrivateRange, Range: server.PrivateRangeQuery{Region: region, Radius: 0.2, Class: class}},
		{Kind: server.BatchPrivateNN, NN: server.PrivateNNQuery{Region: region, Class: class}},
		{Kind: server.BatchPublicCount, Count: server.PublicRangeCountQuery{Query: stack.World}},
	})
	must("batch query", err)
	must("update private", dc.UpdatePrivate(1000, geo.R(0.4, 0.4, 0.6, 0.6)))
	must("remove private", dc.RemovePrivate(1000))
	must("update moving", dc.UpdateMoving(7, geo.Pt(0.2, 0.2)))
	_, err = dc.RemoveMoving(7)
	must("remove moving", err)
	_, _, err = dc.Stats()
	must("database stats", err)
	if routed {
		_, err = dc.ShardMap()
		must("shard map", err)
		return
	}
	_, err = dc.PublicNN(server.PublicNNQuery{From: geo.Pt(0.5, 0.5), Samples: 50})
	must("public nn", err)
	cq, err := dc.RegisterContinuousCount(geo.R(0, 0, 0.5, 0.5))
	must("register continuous count", err)
	_, err = dc.ContinuousCount(cq)
	must("continuous count", err)
	must("unregister continuous count", dc.UnregisterContinuousCount(cq))
}

// overload holds one update's forward on the wire, so that it stays in
// flight at the anonymizer, whose admission budget is 1, and a traced
// update on another connection is shed.
func overload(t *testing.T, st *stack.Stack, g *gate, ac *protocol.AnonymizerClient) {
	t.Helper()
	held, err := protocol.DialAnonymizer(st.AnonAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	g.hold.Store(true)
	done := make(chan error, 1)
	go func() {
		_, err := held.Update(1, geo.Pt(0.31, 0.31))
		done <- err
	}()
	<-g.blocked
	if _, err := ac.Update(2, geo.Pt(0.32, 0.32)); !errors.Is(err, protocol.ErrOverloaded) {
		t.Errorf("update beside one in flight: err = %v, want overloaded", err)
	}
	g.hold.Store(false)
	close(g.release)
	if err := <-done; err != nil {
		t.Fatalf("held update: %v", err)
	}
}

// driveScenario runs the scenario engine against st, once with single and
// once with batched updates, and returns the span rings it collected.
func driveScenario(t *testing.T, st *stack.Stack) [][]trace.SpanRecord {
	t.Helper()
	sc := scenario.Scenario{Name: "families", Desc: "every operation kind, traced",
		Run: func(e *scenario.Env) error {
			e.Drive(scenario.Phase{Name: "mix", Dur: 300 * time.Millisecond, QueryPct: 30, CountPct: 30})
			return nil
		}}
	var rings [][]trace.SpanRecord
	for _, batch := range []int{1, 8} {
		res, err := scenario.Run(sc, scenario.Config{Users: 100, Objects: 40, K: 5, Workers: 2,
			Batch: batch, Seed: 1, Trace: true, Anon: st.AnonAddr(), DB: st.DBAddr()})
		if err != nil {
			t.Fatal(err)
		}
		rings = append(rings, res.Traces...)
	}
	return rings
}

// pull reads one process's exported series and its span ring.
func pull(t *testing.T, metrics func() ([]obs.MetricSnapshot, error),
	traces func() ([]trace.SpanRecord, error)) ([]obs.MetricSnapshot, []trace.SpanRecord) {
	t.Helper()
	series, err := metrics()
	if err != nil {
		t.Fatal(err)
	}
	spans, err := traces()
	if err != nil {
		t.Fatal(err)
	}
	return series, spans
}

// families returns the sorted distinct families of names.
func families(names []string) []string {
	set := make(map[string]bool)
	for _, n := range names {
		f, _, _ := strings.Cut(n, "_")
		set[f] = true
	}
	out := make([]string, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool { return strings.Join(a, ",") == strings.Join(b, ",") }

// spanNames returns the literal span names that the non-test files of the
// given internal packages start: Tracer.StartRoot(name),
// Tracer.StartSpan(sc, name), trace.Start(ctx, t, name) and
// trace.NewStage(name, hist).
func spanNames(t *testing.T, pkgs ...string) []string {
	t.Helper()
	arg := map[string]int{"StartRoot": 0, "StartSpan": 1, "Start": 2, "NewStage": 0}
	var names []string
	fset := token.NewFileSet()
	for _, pkg := range pkgs {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("package %s: %d files, %v", pkg, len(files), err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				i, ok := arg[sel.Sel.Name]
				if !ok || i >= len(call.Args) {
					return true
				}
				if lit, ok := call.Args[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, _ := strconv.Unquote(lit.Value)
					names = append(names, name)
				}
				return true
			})
		}
	}
	return names
}

// spot is a fixed in-world location per id.
func spot(id uint64) geo.Point {
	return geo.Pt(0.05+float64(id%19)*0.05, 0.05+float64(id%17)*0.055)
}

// gate is the anonymizer's forward-link transport. While hold is set a
// write announces itself on blocked and waits for release, so the update
// that forwards stays in flight.
type gate struct {
	hold    atomic.Bool
	blocked chan struct{}
	release chan struct{}
}

func (g *gate) dial(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return gatedConn{c, g}, nil
}

type gatedConn struct {
	net.Conn
	g *gate
}

func (c gatedConn) Write(p []byte) (int, error) {
	if c.g.hold.Load() {
		c.g.blocked <- struct{}{}
		<-c.g.release
	}
	return c.Conn.Write(p)
}
