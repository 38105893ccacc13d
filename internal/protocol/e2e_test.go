package protocol

import (
	"errors"
	"math"
	"net"
	"testing"
	"time"

	"repro/internal/anonymizer"
	"repro/internal/cloak"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/privacy"
	"repro/internal/server"
)

var world = geo.R(0, 0, 1, 1)

func quiet(string, ...interface{}) {}

// threeTier brings up the full Figure 1 deployment over loopback TCP:
// database service, anonymizer service forwarding to it through a
// DatabaseClient, and clients for both.
func threeTier(t *testing.T) (*AnonymizerClient, *DatabaseClient, func()) {
	t.Helper()
	srv, err := server.New(server.Config{World: world})
	if err != nil {
		t.Fatal(err)
	}
	dbSvc, err := ServeDatabase("127.0.0.1:0", srv, quiet)
	if err != nil {
		t.Fatal(err)
	}
	fwdClient, err := DialDatabase(dbSvc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	anon, err := anonymizer.New(anonymizer.Config{
		World:        world,
		Forward:      fwdClient.UpdatePrivate,
		Shards:       4, // exercise the sharded pipeline over the wire
		BatchWorkers: 2,
		Clock:        func() time.Time { return time.Date(2026, 7, 4, 12, 0, 0, 0, time.UTC) },
	})
	if err != nil {
		t.Fatal(err)
	}
	anonSvc, err := ServeAnonymizer("127.0.0.1:0", anon, quiet)
	if err != nil {
		t.Fatal(err)
	}
	userClient, err := DialAnonymizer(anonSvc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	adminClient, err := DialDatabase(dbSvc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cleanup := func() {
		userClient.Close()
		adminClient.Close()
		fwdClient.Close()
		anonSvc.Close()
		dbSvc.Close()
	}
	return userClient, adminClient, cleanup
}

func TestEndToEndThreeTier(t *testing.T) {
	user, admin, cleanup := threeTier(t)
	defer cleanup()

	// Load public data through the admin connection.
	pois, err := mobility.GeneratePoints(mobility.PopulationSpec{
		N: 500, World: world, Dist: mobility.Uniform, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]server.PublicObject, len(pois))
	for i, p := range pois {
		objs[i] = server.PublicObject{ID: uint64(i + 1), Class: "gas", Loc: p}
	}
	if err := admin.LoadStationary(objs); err != nil {
		t.Fatal(err)
	}

	// Register mobile users and stream location updates through the
	// anonymizer.
	userPts, err := mobility.GeneratePoints(mobility.PopulationSpec{
		N: 300, World: world, Dist: mobility.Uniform, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	prof := privacy.Constant(privacy.Requirement{K: 10})
	for i, p := range userPts {
		id := uint64(i + 1)
		if err := user.Register(id, prof); err != nil {
			t.Fatal(err)
		}
		res, err := user.Update(id, p)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Region.Contains(p) {
			t.Fatalf("cloaked region excludes user %d", id)
		}
		if !res.SatisfiedK && i >= 10 {
			t.Fatalf("k unsatisfied for user %d with population %d", id, i+1)
		}
	}

	// The server now tracks everyone.
	stationary, private, err := admin.Stats()
	if err != nil || stationary != 500 || private != 300 {
		t.Fatalf("Stats = %d, %d, %v", stationary, private, err)
	}

	// Private queries end to end (Figure 5): cloak, query, refine, and the
	// refined answer equals brute force — NN for 30 users, range r = 0.1
	// for the first 20 of them.
	for trial := 0; trial < 30; trial++ {
		uid := uint64(trial*10 + 2)
		loc := userPts[uid-1]
		cres, err := user.CloakQuery(uid, loc)
		if err != nil {
			t.Fatal(err)
		}
		nn, err := admin.PrivateNN(server.PrivateNNQuery{Region: cres.Region, Class: "gas"})
		if err != nil {
			t.Fatal(err)
		}
		ans, ok := server.RefineNN(loc, nn.Candidates)
		if !ok {
			t.Fatal("no NN candidates")
		}
		bestD := math.Inf(1)
		for _, p := range pois {
			if d := loc.Dist2(p); d < bestD {
				bestD = d
			}
		}
		if loc.Dist2(ans.Loc) != bestD {
			t.Fatalf("user %d: refined networked NN is not the true NN", uid)
		}
		if trial >= 20 {
			continue
		}
		cands, err := admin.PrivateRange(server.PrivateRangeQuery{
			Region: cres.Region, Radius: 0.1, Class: "gas",
		})
		if err != nil {
			t.Fatal(err)
		}
		refined := server.RefineRange(loc, 0.1, cands)
		want := 0
		for _, p := range pois {
			if loc.Dist(p) <= 0.1 {
				want++
			}
		}
		if len(refined) != want {
			t.Fatalf("user %d: networked range %d, brute %d", uid, len(refined), want)
		}
		for i := 1; i < len(refined); i++ {
			if loc.Dist2(refined[i].Loc) < loc.Dist2(refined[i-1].Loc) {
				t.Fatalf("user %d: refined range not sorted by distance", uid)
			}
		}
	}

	// Public probabilistic count.
	area := geo.R(0.25, 0.25, 0.75, 0.75)
	cnt, err := admin.PublicCount(area)
	if err != nil {
		t.Fatal(err)
	}
	truth := 0
	for _, p := range userPts {
		if area.Contains(p) {
			truth++
		}
	}
	if truth < cnt.Answer.Lo || truth > cnt.Answer.Hi {
		t.Fatalf("networked count interval [%d,%d] misses %d", cnt.Answer.Lo, cnt.Answer.Hi, truth)
	}
	if len(cnt.Answer.PDF) == 0 {
		t.Fatal("PDF not transferred")
	}

	// Public NN (e-coupon).
	pnn, err := admin.PublicNN(server.PublicNNQuery{From: geo.Pt(0.5, 0.5), Samples: 500, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(pnn.Candidates) == 0 || pnn.Best.ID == 0 {
		t.Fatalf("networked public NN = %+v", pnn)
	}
	sum := 0.0
	for _, c := range pnn.Candidates {
		sum += c.Prob
		if _, ok := pnn.CandidateRegions[c.ID]; !ok {
			t.Fatal("candidate region missing")
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("networked NN probabilities sum to %v", sum)
	}

	// Mode switching and deregistration over the wire.
	uid := uint64(42)
	loc := userPts[uid-1]
	if err := user.SetMode(uid, privacy.Passive); err != nil {
		t.Fatal(err)
	}
	if _, err := user.Update(uid, loc); !errors.Is(err, ErrRemote) {
		t.Fatalf("passive update should fail remotely: %v", err)
	}
	if err := user.Deregister(uid); err != nil {
		t.Fatal(err)
	}
	if err := admin.RemovePrivate(uid); err != nil {
		t.Fatal(err)
	}
	_, private, _ = admin.Stats()
	if private != 299 {
		t.Fatalf("private count after removal = %d", private)
	}
}

func TestEndToEndErrorPropagation(t *testing.T) {
	user, admin, cleanup := threeTier(t)
	defer cleanup()
	// Update for unknown user: remote error.
	if _, err := user.Update(77, geo.Pt(0.5, 0.5)); !errors.Is(err, ErrRemote) {
		t.Errorf("unknown user update = %v", err)
	}
	// Invalid query region: remote error.
	if _, err := admin.PrivateNN(server.PrivateNNQuery{
		Region: geo.Rect{Min: geo.Pt(1, 1), Max: geo.Pt(0, 0)},
	}); !errors.Is(err, ErrRemote) {
		t.Errorf("invalid region query = %v", err)
	}
}

func BenchmarkEndToEndUpdate(b *testing.B) {
	srv, _ := server.New(server.Config{World: world})
	dbSvc, err := ServeDatabase("127.0.0.1:0", srv, quiet)
	if err != nil {
		b.Fatal(err)
	}
	defer dbSvc.Close()
	fwd, _ := DialDatabase(dbSvc.Addr())
	defer fwd.Close()
	anon, _ := anonymizer.New(anonymizer.Config{World: world, Forward: fwd.UpdatePrivate})
	anonSvc, err := ServeAnonymizer("127.0.0.1:0", anon, quiet)
	if err != nil {
		b.Fatal(err)
	}
	defer anonSvc.Close()
	user, _ := DialAnonymizer(anonSvc.Addr())
	defer user.Close()

	prof := privacy.Constant(privacy.Requirement{K: 5})
	pts, _ := mobility.GeneratePoints(mobility.PopulationSpec{
		N: 1000, World: world, Dist: mobility.Uniform, Seed: 1,
	})
	for i := range pts {
		user.Register(uint64(i+1), prof)
		user.Update(uint64(i+1), pts[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(i%1000) + 1
		if _, err := user.Update(id, pts[id-1]); err != nil {
			b.Fatal(err)
		}
	}
}

func TestContinuousCountOverTheWire(t *testing.T) {
	user, admin, cleanup := threeTier(t)
	defer cleanup()

	prof := privacy.Constant(privacy.Requirement{K: 1})
	if err := user.Register(1, prof); err != nil {
		t.Fatal(err)
	}

	area := geo.R(0.2, 0.2, 0.6, 0.6)
	qid, err := admin.RegisterContinuousCount(area)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := admin.ContinuousCount(qid)
	if err != nil || ans.Hi != 0 {
		t.Fatalf("initial answer = %+v, %v", ans, err)
	}
	// The user enters the monitored area (k=1: degenerate region inside).
	if _, err := user.Update(1, geo.Pt(0.4, 0.4)); err != nil {
		t.Fatal(err)
	}
	ans, err = admin.ContinuousCount(qid)
	if err != nil || ans.Lo != 1 || ans.Hi != 1 {
		t.Fatalf("after enter = %+v, %v", ans, err)
	}
	// She leaves.
	if _, err := user.Update(1, geo.Pt(0.9, 0.9)); err != nil {
		t.Fatal(err)
	}
	ans, err = admin.ContinuousCount(qid)
	if err != nil || ans.Hi != 0 {
		t.Fatalf("after leave = %+v, %v", ans, err)
	}
	if err := admin.UnregisterContinuousCount(qid); err != nil {
		t.Fatal(err)
	}
	if err := admin.UnregisterContinuousCount(qid); !errors.Is(err, ErrRemote) {
		t.Fatalf("double unregister = %v", err)
	}
	if _, err := admin.ContinuousCount(qid); !errors.Is(err, ErrRemote) {
		t.Fatalf("read after unregister = %v", err)
	}
	// Moving public objects over the wire.
	if err := admin.UpdateMoving(500, geo.Pt(0.3, 0.3)); err != nil {
		t.Fatal(err)
	}
	if err := admin.UpdateMoving(500, geo.Pt(5, 5)); !errors.Is(err, ErrRemote) {
		t.Fatalf("out-of-world moving update = %v", err)
	}
}

func TestBatchUpdateOverTheWire(t *testing.T) {
	user, admin, cleanup := threeTier(t)
	defer cleanup()

	pts, err := mobility.GeneratePoints(mobility.PopulationSpec{
		N: 200, World: world, Dist: mobility.Gaussian, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	prof := privacy.Constant(privacy.Requirement{K: 10})
	reqs := make([]cloak.Request, len(pts))
	for i, p := range pts {
		id := uint64(i + 1)
		if err := user.Register(id, prof); err != nil {
			t.Fatal(err)
		}
		reqs[i] = cloak.Request{ID: id, Loc: p}
	}
	// One entry is bogus (unknown user) and must come back nil.
	reqs = append(reqs, cloak.Request{ID: 9999, Loc: geo.Pt(0.5, 0.5)})

	results, err := user.BatchUpdate(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(results), len(reqs))
	}
	for i := 0; i < len(pts); i++ {
		if results[i] == nil {
			t.Fatalf("valid request %d returned nil", i)
		}
		if !results[i].Region.Contains(pts[i]) {
			t.Fatalf("batch region %d excludes the user", i)
		}
	}
	if results[len(results)-1] != nil {
		t.Fatal("bogus request did not return nil")
	}
	// The server received everyone.
	_, private, err := admin.Stats()
	if err != nil || private != len(pts) {
		t.Fatalf("server tracks %d users, want %d (%v)", private, len(pts), err)
	}
}

// TestWireTraceNeverCarriesExactLocations is the runtime counterpart of
// the static privleak pass: it records every frame's message type on the
// anonymizer→database link and asserts that no exact-location message
// (MsgUpdate, MsgBatchUpdate, MsgCloakQuery) ever crosses it — only
// cloaked-region traffic (MsgUpdatePrivate) does. The user→anonymizer
// link is recorded too as a sensitivity control: the same recorder MUST
// see MsgUpdate there, proving the assertion would catch a leak.
func TestWireTraceNeverCarriesExactLocations(t *testing.T) {
	srv, err := server.New(server.Config{World: world})
	if err != nil {
		t.Fatal(err)
	}
	dbSvc, err := ServeDatabase("127.0.0.1:0", srv, quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer dbSvc.Close()

	// The anonymizer's downstream connection, recorded.
	var dbLink *faults.Recorder
	fwd, err := DialDatabase(dbSvc.Addr(), WithDialer(func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		dbLink = faults.Record(conn)
		return dbLink, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()

	anon, err := anonymizer.New(anonymizer.Config{World: world, Forward: fwd.UpdatePrivate})
	if err != nil {
		t.Fatal(err)
	}
	anonSvc, err := ServeAnonymizer("127.0.0.1:0", anon, quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer anonSvc.Close()

	// The user's connection to the anonymizer, also recorded.
	var userLink *faults.Recorder
	user, err := DialAnonymizer(anonSvc.Addr(), WithDialer(func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		userLink = faults.Record(conn)
		return userLink, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer user.Close()

	// Drive every exact-location path: per-user updates, cloak queries and
	// a batch, all of which forward cloaked regions downstream.
	prof := privacy.Constant(privacy.Requirement{K: 2})
	for id := uint64(1); id <= 5; id++ {
		if err := user.Register(id, prof); err != nil {
			t.Fatal(err)
		}
		if _, err := user.Update(id, geo.Pt(0.1*float64(id), 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := user.CloakQuery(3, geo.Pt(0.3, 0.5)); err != nil {
		t.Fatal(err)
	}
	if _, err := user.BatchUpdate([]cloak.Request{
		{ID: 1, Loc: geo.Pt(0.15, 0.5)},
		{ID: 2, Loc: geo.Pt(0.25, 0.5)},
	}); err != nil {
		t.Fatal(err)
	}

	// The untrusted link never carries an exact-location message.
	exact := map[byte]bool{MsgUpdate: true, MsgBatchUpdate: true, MsgCloakQuery: true}
	trace := dbLink.Writes()
	if len(trace) == 0 {
		t.Fatal("database link recorded no frames; the recorder is not on the forwarding path")
	}
	forwarded := 0
	for _, typ := range trace {
		if exact[typ] {
			t.Fatalf("exact-location message %s crossed the anonymizer→database link (trace %v)",
				MessageName(typ), trace)
		}
		if typ == MsgUpdatePrivate {
			forwarded++
		}
	}
	if forwarded == 0 {
		t.Fatalf("no MsgUpdatePrivate on the database link; trace %v", trace)
	}

	// Sensitivity control: the trusted ingress DOES carry them, so the
	// assertion above is capable of failing.
	sawUpdate, sawBatch := false, false
	for _, typ := range userLink.Writes() {
		sawUpdate = sawUpdate || typ == MsgUpdate
		sawBatch = sawBatch || typ == MsgBatchUpdate
	}
	if !sawUpdate || !sawBatch {
		t.Fatalf("user link trace missed MsgUpdate/MsgBatchUpdate (update %v, batch %v): recorder cannot see frame types",
			sawUpdate, sawBatch)
	}
}

func TestAnonStatsOverTheWire(t *testing.T) {
	user, _, cleanup := threeTier(t)
	defer cleanup()
	prof := privacy.Constant(privacy.Requirement{K: 1})
	user.Register(1, prof)
	user.Update(1, geo.Pt(0.5, 0.5))
	user.CloakQuery(1, geo.Pt(0.5, 0.5))
	st, err := user.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Registered != 1 || st.Updates != 1 || st.Queries != 1 {
		t.Errorf("wire stats = %+v", st)
	}
	if st.Forwarded != 2 {
		t.Errorf("Forwarded = %d, want 2 (update + cloak query)", st.Forwarded)
	}

	// Batch-pipeline counters cross the wire too: two requests in the same
	// bottom cell with the same requirement share one descent.
	if _, err := user.BatchUpdate([]cloak.Request{
		{ID: 1, Loc: geo.Pt(0.5, 0.5)},
		{ID: 1, Loc: geo.Pt(0.5, 0.5)},
	}); err != nil {
		t.Fatal(err)
	}
	st, err = user.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Batches != 1 {
		t.Errorf("Batches = %d, want 1", st.Batches)
	}
	if st.SharedHits != 1 {
		t.Errorf("SharedHits = %d, want 1", st.SharedHits)
	}
}
