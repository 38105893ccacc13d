package protocol

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

// wireConsts parses wire.go and returns the message-type constants of its
// const block — every Msg* name plus msgOK and msgErr — with the type byte
// each is declared as.
func wireConsts(t *testing.T) map[string]byte {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "wire.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	consts := make(map[string]byte)
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if name := vs.Names[0].Name; strings.HasPrefix(name, "Msg") || strings.HasPrefix(name, "msg") {
				lit, ok := vs.Values[0].(*ast.BasicLit)
				if !ok {
					t.Fatalf("%s is not declared with a literal type byte", name)
				}
				v, err := strconv.ParseUint(lit.Value, 0, 8)
				if err != nil {
					t.Fatalf("%s = %s: %v", name, lit.Value, err)
				}
				consts[name] = byte(v)
			}
		}
	}
	return consts
}

// The census: the constants in wire.go, the rows of the messages table
// and the loopback round-trip cases name the same set of types. (Two rows
// cannot share a byte: the table is an array literal indexed by type.)
func TestMessageTableCensus(t *testing.T) {
	named := make(map[byte]string)
	for name, typ := range wireConsts(t) {
		if other := named[typ]; other != "" {
			t.Errorf("%s and %s share the type byte %d", other, name, typ)
		}
		named[typ] = name
		if messages[typ].label == "" {
			t.Errorf("%s (type %d) has no row in the messages table", name, typ)
		}
	}
	if len(named) < 30 {
		t.Fatalf("parsed only %d message constants out of wire.go: the census has nothing to check", len(named))
	}
	labels := make(map[string]byte)
	for i, m := range messages {
		typ := byte(i)
		if m.label == "" {
			if m != (message{}) {
				t.Errorf("type %d: a row without a label: %+v", typ, m)
			}
			continue
		}
		if named[typ] == "" {
			t.Errorf("row %q (type %d) belongs to no constant in wire.go", m.label, typ)
		}
		if other, dup := labels[m.label]; dup {
			t.Errorf("types %d and %d share the label %q", other, typ, m.label)
		}
		labels[m.label] = typ
		if m.response {
			if m.idempotent || m.class != admitUpdate || roundTrips[typ] != nil {
				t.Errorf("response-only row %q carries request metadata or a round-trip case", m.label)
			}
		} else if roundTrips[typ] == nil {
			t.Errorf("request row %q has no loopback round-trip case in roundTrips", m.label)
		}
	}
}

// The table answers exactly as the three per-type switches it replaced
// did, for all 256 type bytes. The rows below are those switches' answers;
// every byte not listed was "type_<n>", not idempotent, update class.
func TestMessageMetadataGolden(t *testing.T) {
	type meta struct {
		name       string
		idempotent bool
		class      int
	}
	golden := map[byte]meta{
		0:  {"ok", false, admitUpdate},
		1:  {"err", false, admitUpdate},
		2:  {"register", false, admitUpdate},
		3:  {"update", true, admitUpdate},
		4:  {"cloak_query", true, admitQuery},
		5:  {"deregister", true, admitUpdate},
		6:  {"set_mode", true, admitUpdate},
		7:  {"batch_update", true, admitUpdate},
		8:  {"anon_stats", true, admitAlways},
		9:  {"update_profile", true, admitUpdate},
		10: {"update_private", true, admitUpdate},
		11: {"remove_private", true, admitUpdate},
		12: {"private_range", true, admitQuery},
		13: {"private_nn", true, admitQuery},
		14: {"public_count", true, admitQuery},
		15: {"public_nn", true, admitQuery},
		16: {"load_stationary", false, admitUpdate},
		17: {"stats", true, admitAlways},
		18: {"reg_cont_count", false, admitUpdate},
		19: {"cont_count", true, admitQuery},
		20: {"unreg_cont_count", false, admitUpdate},
		21: {"update_moving", true, admitUpdate},
		22: {"batch_query", true, admitQuery},
		23: {"batch_result", false, admitUpdate},
		30: {"metrics", true, admitAlways},
		31: {"traced", false, admitUpdate},
		32: {"traces", true, admitAlways},
		34: {"overloaded", false, admitUpdate},
		35: {"remove_moving", true, admitUpdate},
		36: {"nn_parts", true, admitQuery},
		37: {"count_probs", true, admitQuery},
		38: {"shard_map", true, admitAlways},
		39: {"shard_batch", true, admitQuery},
	}
	for i := 0; i < 256; i++ {
		typ := byte(i)
		want, ok := golden[typ]
		if !ok {
			want = meta{fmt.Sprintf("type_%d", i), false, admitUpdate}
		}
		if got := (meta{MessageName(typ), Idempotent(typ), admissionClass(typ)}); got != want {
			t.Errorf("type %d: %+v, want %+v", i, got, want)
		}
	}
}

// Dispatch: every request row is answered by at least one service with
// something other than its unknown-type error, no service dispatches on a
// response-only row, and the router names each single-node type in its
// typed unsupported error.
func TestEveryRequestTypeIsDispatched(t *testing.T) {
	l := startLoop(t)
	reg := obs.NewRegistry()
	var clients []*Client
	for _, svc := range []struct {
		name  string
		serve func(opts ...Option) (*Service, error)
	}{
		{"anonymizer", func(opts ...Option) (*Service, error) { return ServeAnonymizer("127.0.0.1:0", l.anon, quiet, opts...) }},
		{"database", func(opts ...Option) (*Service, error) { return ServeDatabase("127.0.0.1:0", l.srv, quiet, opts...) }},
		{"router", func(opts ...Option) (*Service, error) { return ServeRouter("127.0.0.1:0", l.rt, quiet, opts...) }},
	} {
		s, err := svc.serve(WithMetrics(reg), WithTracing(trace.New(trace.Config{Process: svc.name})))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		clients = append(clients, dialRaw(t, s.Addr(), WithRetries(0)))
	}
	// answers reports whether the service behind c dispatches typ: an empty
	// payload earns a short-payload error or a real answer from a handler
	// case, and the unknown-type error from a service without one.
	answers := func(c *Client, typ byte) (bool, error) {
		_, err := c.Call(typ, nil)
		if err != nil && !errors.Is(err, ErrRemote) {
			t.Fatalf("%s: transport failure: %v", MessageName(typ), err)
		}
		return err == nil || !strings.Contains(err.Error(), "unknown message type"), err
	}
	for i, m := range messages {
		if m.label == "" {
			continue
		}
		served := 0
		for _, c := range clients {
			if ok, _ := answers(c, byte(i)); ok {
				served++
			}
		}
		if m.response && served != 0 {
			t.Errorf("response-only type %q is dispatched by %d services", m.label, served)
		}
		if !m.response && served == 0 {
			t.Errorf("request type %q is answered by no service", m.label)
		}
	}
	for _, typ := range []byte{MsgPublicNN, MsgRegContCount, MsgContCount, MsgUnregContCount, MsgNNParts, MsgCountProbs, MsgShardBatch} {
		if ok, _ := answers(clients[1], typ); !ok {
			t.Errorf("lbsd does not answer the single-node type %s", MessageName(typ))
		}
		want := fmt.Sprintf("protocol: router service: %s not supported by the router tier", MessageName(typ))
		if _, err := answers(clients[2], typ); err == nil || !strings.HasSuffix(err.Error(), want) {
			t.Errorf("router answered %s with %v, want %q", MessageName(typ), err, want)
		}
	}
}
