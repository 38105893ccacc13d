package stack

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/privacy"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/trace"
)

const testUsers = 60

// clients is one user connection to the anonymizer and one third-party
// connection to the database tier.
type clients struct {
	anon *protocol.AnonymizerClient
	db   *protocol.DatabaseClient
}

func dial(t *testing.T, st *Stack, opts ...protocol.DialOption) clients {
	t.Helper()
	opts = append([]protocol.DialOption{protocol.WithCallTimeout(5 * time.Second)}, opts...)
	ac, err := protocol.DialAnonymizer(st.AnonAddr(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := protocol.DialDatabase(st.DBAddr(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ac.Close(); dc.Close() })
	return clients{ac, dc}
}

func userLoc(id uint64) geo.Point {
	src := rng.New(id)
	return geo.Pt(src.Range(0.05, 0.95), src.Range(0.05, 0.95))
}

// answers is what a third party reads back: a private NN over one user's
// cloak and a public count over the whole world.
type answers struct {
	nn    server.PrivateNNResult
	count server.PublicRangeCountResult
}

// populate loads public objects, registers every user and streams one
// update each through the anonymizer.
func populate(t *testing.T, c clients) {
	t.Helper()
	objs := make([]server.PublicObject, 40)
	for i := range objs {
		objs[i] = server.PublicObject{ID: uint64(i + 1), Class: "poi", Loc: userLoc(uint64(1000 + i))}
	}
	if err := c.db.LoadStationary(objs); err != nil {
		t.Fatal(err)
	}
	prof := privacy.Constant(privacy.Requirement{K: 5})
	for id := uint64(1); id <= testUsers; id++ {
		if err := c.anon.Register(id, prof); err != nil {
			t.Fatal(err)
		}
		if _, err := c.anon.Update(id, userLoc(id)); err != nil {
			t.Fatalf("update %d: %v", id, err)
		}
	}
}

// resident reads the database tier's resident-user count over MsgStats,
// which the lbsd and the router both answer.
func resident(t *testing.T, c clients) int {
	t.Helper()
	_, n, err := c.db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// query runs the read path: cloak query at the anonymizer, private NN and
// public count at the database tier.
func query(c clients) (answers, error) {
	res, err := c.anon.CloakQuery(7, userLoc(7))
	if err != nil {
		return answers{}, err
	}
	var a answers
	if a.nn, err = c.db.PrivateNN(server.PrivateNNQuery{Region: res.Region, Class: "poi"}); err != nil {
		return a, err
	}
	a.count, err = c.db.PublicCount(World)
	return a, err
}

// eventually retries fn until it succeeds: after a restart the clients
// reconnect and a router's breaker waits out its cooldown.
func eventually(t *testing.T, what string, fn func() error) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := fn()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %v", what, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// settles waits for the goroutine count to fall back to its level before
// Boot: every service, link and replay loop has exited.
func settles(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after Close, %d before Boot", n, before)
	}
}

func TestBootMatrix(t *testing.T) {
	for _, shards := range []int{0, 1, 3} {
		for _, inflight := range []int{64, 0} {
			t.Run(fmt.Sprintf("shards=%d/inflight=%d", shards, inflight), func(t *testing.T) {
				before := runtime.NumGoroutine()
				st, err := Boot(Topology{Shards: shards, MaxInflight: inflight})
				if err != nil {
					t.Fatal(err)
				}
				t.Run("flows", func(t *testing.T) { exerciseStack(t, st) })
				st.Close()
				st.Close()
				settles(t, before)
			})
		}
	}
}

func exerciseStack(t *testing.T, st *Stack) {
	c := dial(t, st)
	populate(t, c)
	if got := resident(t, c); got != testUsers {
		t.Fatalf("resident users = %d, want %d", got, testUsers)
	}
	want, err := query(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.nn.Candidates) == 0 || want.count.Answer.Hi != testUsers {
		t.Fatalf("read path: %d NN candidates, count interval [%d,%d]",
			len(want.nn.Candidates), want.count.Answer.Lo, want.count.Answer.Hi)
	}

	// A process restart from the snapshot keeps every region and object.
	if err := st.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	st.KillDB()
	if _, err := c.db.PublicCount(World); err == nil {
		t.Fatal("database tier answered while killed")
	}
	if err := st.RestartDB(true); err != nil {
		t.Fatal(err)
	}
	eventually(t, "read path after RestartDB(true)", func() error {
		got, err := query(c)
		if err == nil && !reflect.DeepEqual(got, want) {
			err = fmt.Errorf("answers changed across the snapshot restart:\n got %+v\nwant %+v", got, want)
		}
		return err
	})
	if got := resident(t, c); got != testUsers {
		t.Fatalf("resident users after restore = %d, want %d", got, testUsers)
	}

	// The last shard (the lbsd itself when direct) goes down and comes back.
	last := max(st.Shards(), 1) - 1
	st.KillShard(last)
	if err := st.RestartShard(last); err != nil {
		t.Fatal(err)
	}
	if err := st.RestartShard(last); err == nil {
		t.Fatal("RestartShard of a running shard succeeded")
	}
	eventually(t, "read path after RestartShard", func() error {
		_, err := query(c)
		return err
	})
}

// TestKilledDatabaseSpillsUpdates is the outage the spill queue exists
// for: with the database tier down an update is still acknowledged, its
// region waits in the queue, and it reaches the database after the
// restart.
func TestKilledDatabaseSpillsUpdates(t *testing.T) {
	st, err := Boot(Topology{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	c := dial(t, st)
	populate(t, c)

	st.KillDB()
	const late = testUsers + 1
	if err := c.anon.Register(late, privacy.Constant(privacy.Requirement{K: 5})); err != nil {
		t.Fatal(err)
	}
	if _, err := c.anon.Update(late, userLoc(late)); err != nil {
		t.Fatalf("update with the database down: %v", err)
	}
	if got := anonValue(t, c, "anon_forward_queue_depth"); got < 1 {
		t.Fatalf("anon_forward_queue_depth = %v after a forward to a dead database, want ≥ 1", got)
	}
	if err := st.RestartDB(false); err != nil {
		t.Fatal(err)
	}
	eventually(t, "spilled update delivered", func() error {
		_, got, err := c.db.Stats()
		if err == nil && got != late {
			err = fmt.Errorf("database holds %d users, want %d", got, late)
		}
		return err
	})
	if drops := anonValue(t, c, "anon_forward_queue_drops_total"); drops != 0 {
		t.Fatalf("%v spilled updates dropped", drops)
	}
}

func anonValue(t *testing.T, c clients, name string) float64 {
	t.Helper()
	series, err := c.anon.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		if s.Name == name && (s.Kind == obs.KindGauge || s.Kind == obs.KindCounter) {
			return s.Value
		}
	}
	t.Fatalf("anonymizer exports no %s", name)
	return 0
}

// TestTracedBootJoinsBothHops: a traced client's update leaves
// spans under its trace id in both daemons' rings — the anonymizer and
// the database tier's front — which is what lbssoak -trace merges.
func TestTracedBootJoinsBothHops(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			st, err := Boot(Topology{Shards: shards, Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			tr := trace.New(trace.Config{Process: "client", Sample: 1})
			c := dial(t, st, protocol.WithClientTracing(tr))
			populate(t, c)

			root := tr.StartRoot("traced_update")
			ctx := trace.NewContext(context.Background(), root.Context())
			if _, err := c.anon.UpdateCtx(ctx, 3, userLoc(3)); err != nil {
				t.Fatal(err)
			}
			root.End()
			id := root.Context().TraceID

			front := "lbsd"
			if shards > 0 {
				front = "lbsrouter"
			}
			for _, hop := range []struct {
				proc  string
				spans func() ([]trace.SpanRecord, error)
			}{{"anonymizer", c.anon.Traces}, {front, c.db.Traces}} {
				spans, err := hop.spans()
				if err != nil {
					t.Fatal(err)
				}
				n := 0
				for _, s := range spans {
					if s.TraceID == id && s.Proc == hop.proc {
						n++
					}
				}
				if n == 0 {
					t.Fatalf("%s ring holds no span of trace %016x (%d spans)", hop.proc, id, len(spans))
				}
			}
		})
	}
}

// TestBootFailureReleasesEverything: a negative shard count fails Boot
// before anything starts, and a topology the router rejects fails it after
// the shards are already listening; Boot closes them again.
func TestBootFailureReleasesEverything(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, shards := range []int{-1, router.MaxShards + 1} {
		if st, err := Boot(Topology{Shards: shards}); err == nil {
			st.Close()
			t.Fatalf("Boot accepted %d shards", shards)
		}
	}
	settles(t, before)
}
