package router_test

// The routing-tier differential suite: for every committed seed, one
// deterministic data set (stationary objects, moving objects, and
// cloaked user regions produced by all five cloaking algorithms) is
// loaded wire-to-wire into a single lbsd and into a router over several
// shard counts, and every operation — updates, removals, all three
// query kinds, mixed batches, error paths — must produce bit-identical
// answers on both tiers. The suite lives in package router_test because
// it drives the tiers through internal/protocol, which itself imports
// the router package.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/anonymizer"
	"repro/internal/cloak"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/privacy"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/server"
)

var diffWorld = geo.R(0, 0, 1, 1)

var diffClasses = []string{"", "gas", "bank"}

// diffAlgorithms is every cloaking algorithm of the paper; the suite draws
// resident regions and query regions from all of them.
var diffAlgorithms = []string{"quadtree", "grid", "grid-ml", "naive", "mbr"}

// diffCloaker returns a function that moves a user to a point and cloaks
// her there under her diffK requirement. The space-dependent algorithms
// run in an anonymizer. The anonymizer cloaks from cell counts only, so
// naive and MBR run over their own 64×64 grid of exact positions.
func diffCloaker(t *testing.T, alg string, users int) func(id uint64, p geo.Point) (cloak.Result, error) {
	t.Helper()
	if alg == "naive" || alg == "mbr" {
		gi, err := grid.New(diffWorld, 64, 64)
		if err != nil {
			t.Fatal(err)
		}
		var c cloak.Cloaker = &cloak.Naive{Pop: cloak.GridPopulation{Index: gi}}
		if alg == "mbr" {
			c = &cloak.MBR{Pop: cloak.GridPopulation{Index: gi}}
		}
		return func(id uint64, p geo.Point) (cloak.Result, error) {
			gi.Upsert(id, p)
			return c.Cloak(id, p, privacy.Requirement{K: diffK(id)}), nil
		}
	}
	a, err := anonymizer.ParseAlgorithm(alg)
	if err != nil {
		t.Fatal(err)
	}
	anon, err := anonymizer.New(anonymizer.Config{World: diffWorld, Algorithm: a})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= uint64(users); id++ {
		if err := anon.Register(id, privacy.Constant(privacy.Requirement{K: diffK(id)})); err != nil {
			t.Fatalf("%v: Register(%d): %v", alg, id, err)
		}
	}
	return anon.Update
}

// diffShardCounts returns the routed shard counts to compare against the
// single server. The CI matrix overrides the default {1, 2, 4, 8} via
// ROUTER_TEST_SHARDS=<n>, which narrows the sweep to {1, n}.
func diffShardCounts(t testing.TB) []int {
	t.Helper()
	s := os.Getenv("ROUTER_TEST_SHARDS")
	if s == "" {
		return []int{1, 2, 4, 8}
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 || n > router.MaxShards {
		t.Fatalf("bad ROUTER_TEST_SHARDS=%q", s)
	}
	if n == 1 {
		return []int{1}
	}
	return []int{1, n}
}

// diffSeeds loads the committed seed table.
func diffSeeds(t testing.TB) []uint64 {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "diff_seeds.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var seeds []uint64
	for ln, line := range strings.Split(string(raw), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		s, err := strconv.ParseUint(line, 10, 64)
		if err != nil {
			t.Fatalf("diff_seeds.txt:%d: %v", ln+1, err)
		}
		seeds = append(seeds, s)
	}
	if len(seeds) == 0 {
		t.Fatal("diff_seeds.txt holds no seeds")
	}
	return seeds
}

func noLog(string, ...interface{}) {}

// tier is one side of the comparison: a dialed client plus everything to
// tear down behind it. A routed tier keeps its router and the registry
// holding the route_* series.
type tier struct {
	cli    *protocol.DatabaseClient
	rt     *router.Router
	reg    *obs.Registry
	closes []func()
}

// counter reads one route_* counter of a routed tier (0 before its first
// count registers it).
func (tr *tier) counter(name string, labels ...obs.Label) uint64 {
	s, _ := tr.reg.Find(name, labels...)
	return uint64(s.Value)
}

func (tr *tier) Close() {
	for i := len(tr.closes) - 1; i >= 0; i-- {
		tr.closes[i]()
	}
}

func dialTier(t *testing.T, addr string) *protocol.DatabaseClient {
	t.Helper()
	cli, err := protocol.DialDatabase(addr, protocol.WithCallTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	return cli
}

// startSingle boots one lbsd and dials it — the reference tier.
func startSingle(t *testing.T) *tier {
	t.Helper()
	srv, err := server.New(server.Config{World: diffWorld})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := protocol.ServeDatabase("127.0.0.1:0", srv, noLog)
	if err != nil {
		t.Fatal(err)
	}
	cli := dialTier(t, svc.Addr())
	return &tier{cli: cli, closes: []func(){func() { svc.Close() }, func() { cli.Close() }}}
}

// startRouted boots n lbsd shards, a router over dialed shard links, and
// the router service, then dials the router — the tier under test.
func startRouted(t *testing.T, shards int) *tier {
	t.Helper()
	tr := &tier{reg: obs.NewRegistry()}
	links := make([]router.Shard, shards)
	addrs := make([]string, shards)
	for i := 0; i < shards; i++ {
		srv, err := server.New(server.Config{World: diffWorld})
		if err != nil {
			t.Fatal(err)
		}
		svc, err := protocol.ServeDatabase("127.0.0.1:0", srv, noLog)
		if err != nil {
			tr.Close()
			t.Fatal(err)
		}
		tr.closes = append(tr.closes, func() { svc.Close() })
		link := dialTier(t, svc.Addr())
		tr.closes = append(tr.closes, func() { link.Close() })
		links[i] = link
		addrs[i] = svc.Addr()
	}
	var err error
	tr.rt, err = router.New(router.Config{World: diffWorld, Shards: links, Addrs: addrs, Metrics: tr.reg})
	if err != nil {
		tr.Close()
		t.Fatal(err)
	}
	rsvc, err := protocol.ServeRouter("127.0.0.1:0", tr.rt, noLog)
	if err != nil {
		tr.Close()
		t.Fatal(err)
	}
	tr.closes = append(tr.closes, func() { rsvc.Close() })
	tr.cli = dialTier(t, rsvc.Addr())
	tr.closes = append(tr.closes, func() { tr.cli.Close() })
	return tr
}

// duo applies every operation to both tiers and fails the test on the
// first observable divergence — results and error texts alike.
type duo struct {
	t      *testing.T
	single *protocol.DatabaseClient
	routed *protocol.DatabaseClient
}

func (d *duo) sameErr(what string, a, b error) {
	d.t.Helper()
	if (a == nil) != (b == nil) {
		d.t.Fatalf("%s: single err=%v, routed err=%v", what, a, b)
	}
	if a != nil && a.Error() != b.Error() {
		d.t.Fatalf("%s: error text diverges:\n  single: %s\n  routed: %s", what, a, b)
	}
}

func (d *duo) loadStationary(objs []server.PublicObject) {
	d.t.Helper()
	d.sameErr("LoadStationary", d.single.LoadStationary(objs), d.routed.LoadStationary(objs))
}

func (d *duo) updateMoving(id uint64, loc geo.Point) {
	d.t.Helper()
	d.sameErr(fmt.Sprintf("UpdateMoving(%d, %v)", id, loc),
		d.single.UpdateMoving(id, loc), d.routed.UpdateMoving(id, loc))
}

func (d *duo) removeMoving(id uint64) {
	d.t.Helper()
	ea, erra := d.single.RemoveMoving(id)
	eb, errb := d.routed.RemoveMoving(id)
	d.sameErr(fmt.Sprintf("RemoveMoving(%d)", id), erra, errb)
	if ea != eb {
		d.t.Fatalf("RemoveMoving(%d): existed %v on single, %v on routed", id, ea, eb)
	}
}

func (d *duo) updatePrivate(id uint64, region geo.Rect) {
	d.t.Helper()
	d.sameErr(fmt.Sprintf("UpdatePrivate(%d, %v)", id, region),
		d.single.UpdatePrivate(id, region), d.routed.UpdatePrivate(id, region))
}

func (d *duo) removePrivate(id uint64) {
	d.t.Helper()
	d.sameErr(fmt.Sprintf("RemovePrivate(%d)", id),
		d.single.RemovePrivate(id), d.routed.RemovePrivate(id))
}

func (d *duo) privateRange(q server.PrivateRangeQuery) {
	d.t.Helper()
	ra, erra := d.single.PrivateRange(q)
	rb, errb := d.routed.PrivateRange(q)
	d.sameErr(fmt.Sprintf("PrivateRange(%+v)", q), erra, errb)
	if !reflect.DeepEqual(ra, rb) {
		d.t.Fatalf("PrivateRange(%+v) diverges:\n  single: %v\n  routed: %v", q, ra, rb)
	}
}

func (d *duo) privateNN(q server.PrivateNNQuery) {
	d.t.Helper()
	ra, erra := d.single.PrivateNN(q)
	rb, errb := d.routed.PrivateNN(q)
	d.sameErr(fmt.Sprintf("PrivateNN(%+v)", q), erra, errb)
	if !reflect.DeepEqual(ra, rb) {
		d.t.Fatalf("PrivateNN(%+v) diverges:\n  single: %+v\n  routed: %+v", q, ra, rb)
	}
}

func (d *duo) publicCount(query geo.Rect) {
	d.t.Helper()
	ra, erra := d.single.PublicCount(query)
	rb, errb := d.routed.PublicCount(query)
	d.sameErr(fmt.Sprintf("PublicCount(%v)", query), erra, errb)
	if !reflect.DeepEqual(ra, rb) {
		d.t.Fatalf("PublicCount(%v) diverges:\n  single: %+v\n  routed: %+v", query, ra, rb)
	}
}

func (d *duo) stats() {
	d.t.Helper()
	sa, pa, erra := d.single.Stats()
	sb, pb, errb := d.routed.Stats()
	d.sameErr("Stats", erra, errb)
	if sa != sb || pa != pb {
		d.t.Fatalf("Stats diverges: single (%d, %d), routed (%d, %d)", sa, pa, sb, pb)
	}
}

// batch compares only Items: Groups and SharedHits are topology-dependent
// diagnostics (the router counts forwarded sub-batches, a single server
// counts shared descents), while the per-entry answers must be identical.
func (d *duo) batch(entries []server.BatchEntry) {
	d.t.Helper()
	ra, erra := d.single.BatchQuery(entries)
	rb, errb := d.routed.BatchQuery(entries)
	d.sameErr("BatchQuery", erra, errb)
	if erra != nil {
		return
	}
	if len(ra.Items) != len(rb.Items) {
		d.t.Fatalf("BatchQuery: %d items on single, %d on routed", len(ra.Items), len(rb.Items))
	}
	for i := range ra.Items {
		ia, ib := ra.Items[i], rb.Items[i]
		d.sameErr(fmt.Sprintf("BatchQuery entry %d", i), ia.Err, ib.Err)
		if !reflect.DeepEqual(ia.Range, ib.Range) ||
			!reflect.DeepEqual(ia.NN, ib.NN) ||
			!reflect.DeepEqual(ia.Count, ib.Count) {
			d.t.Fatalf("BatchQuery entry %d (kind %d) diverges:\n  single: %+v\n  routed: %+v",
				i, entries[i].Kind, ia, ib)
		}
	}
}

// diffData is one seed's deterministic population.
type diffData struct {
	objs    []server.PublicObject // 600 stationary, ids 1..600
	moving  []geo.Point           // 80 moving objects, ids 5000..5079
	userLoc []geo.Point           // 400 private users, ids 1..400
}

func buildDiffData(seed uint64) diffData {
	src := rng.New(seed)
	var data diffData
	for i := 0; i < 600; i++ {
		data.objs = append(data.objs, server.PublicObject{
			ID:    uint64(i + 1),
			Class: diffClasses[1+src.Intn(len(diffClasses)-1)],
			Loc:   geo.Pt(src.Float64(), src.Float64()),
		})
	}
	for i := 0; i < 80; i++ {
		data.moving = append(data.moving, geo.Pt(src.Float64(), src.Float64()))
	}
	for i := 0; i < 400; i++ {
		data.userLoc = append(data.userLoc, geo.Pt(src.Float64(), src.Float64()))
	}
	return data
}

// diffK assigns each user a deterministic anonymity requirement.
func diffK(id uint64) int { return 1 + int(id%37) }

// cloakRegions runs every cloaking algorithm over the user population and
// returns, per user, a resident region (algorithms interleaved by id so
// the loaded population mixes all five) and, per algorithm, one cloaked
// query region per user. Cloaking runs in-process: only the resulting
// rectangles matter here, and both tiers receive the same ones.
func cloakRegions(t *testing.T, seed uint64, data diffData) (resident []geo.Rect, queries [][]geo.Rect) {
	t.Helper()
	src := rng.New(seed ^ 0xC10A)
	resident = make([]geo.Rect, len(data.userLoc))
	queries = make([][]geo.Rect, len(diffAlgorithms))
	for ai, alg := range diffAlgorithms {
		cloakAt := diffCloaker(t, alg, len(data.userLoc))
		for i, p := range data.userLoc {
			cloakAt(uint64(i+1), p) // warm pass; K may be unsatisfiable mid-load
		}
		queries[ai] = make([]geo.Rect, len(data.userLoc))
		for i, p := range data.userLoc {
			id := uint64(i + 1)
			res, err := cloakAt(id, p)
			region := res.Region
			if err != nil || !region.Valid() || region.Area() == 0 {
				region = geo.RectAround(p, 0.01+0.04*src.Float64()).Clip(diffWorld)
			}
			if ai == i%len(diffAlgorithms) {
				resident[i] = region
			}
			qp := diffWorld.ClampPoint(geo.Pt(p.X+src.Range(-0.02, 0.02), p.Y+src.Range(-0.02, 0.02)))
			qres, err := cloakAt(id, qp) // a query cloak moves the user too
			qregion := qres.Region
			if err != nil || !qregion.Valid() || qregion.Area() == 0 {
				qregion = geo.RectAround(qp, 0.01+0.04*src.Float64()).Clip(diffWorld)
			}
			queries[ai][i] = qregion
		}
	}
	return resident, queries
}

// buildDiffEntries generates one mixed batch over cloaked regions: all
// three query kinds, both range modes, class filters, and invalid
// entries whose error paths must match too.
func buildDiffEntries(src *rng.Source, queries [][]geo.Rect, n int) []server.BatchEntry {
	entries := make([]server.BatchEntry, 0, n)
	for i := 0; i < n; i++ {
		r := queries[src.Intn(len(queries))][src.Intn(len(queries[0]))]
		var e server.BatchEntry
		switch src.Intn(10) {
		case 0, 1, 2, 3: // private range
			e.Kind = server.BatchPrivateRange
			e.Range = server.PrivateRangeQuery{
				Region: r,
				Radius: 0.05 * src.Float64(),
				Class:  diffClasses[src.Intn(len(diffClasses))],
			}
			if src.Intn(2) == 0 {
				e.Range.Mode = server.RangeMBR
			}
		case 4, 5, 6: // public count
			e.Kind = server.BatchPublicCount
			e.Count = server.PublicRangeCountQuery{Query: r}
		case 7, 8: // private NN
			e.Kind = server.BatchPrivateNN
			e.NN = server.PrivateNNQuery{Region: r, Class: diffClasses[src.Intn(len(diffClasses))]}
		default: // invalid entries: the per-entry error path must match too
			switch src.Intn(3) {
			case 0:
				e.Kind = server.BatchPrivateRange
				e.Range = server.PrivateRangeQuery{Region: geo.Rect{Min: r.Max, Max: r.Min}, Radius: 0.01}
			case 1:
				e.Kind = server.BatchPrivateRange
				e.Range = server.PrivateRangeQuery{Region: r, Radius: -1}
			default:
				e.Kind = server.BatchPublicCount
				e.Count = server.PublicRangeCountQuery{Query: geo.Rect{Min: r.Max, Max: r.Min}}
			}
		}
		entries = append(entries, e)
	}
	return entries
}

// runDifferential replays one seed's full operation script against both
// tiers: load, the query sweep over every algorithm's cloaked regions,
// error paths, mixed batches, moving churn (with tile handoffs), and
// user churn (with replication changes and removals).
func runDifferential(t *testing.T, d *duo, data diffData, resident []geo.Rect, queries [][]geo.Rect, seed uint64) {
	t.Helper()
	d.loadStationary(data.objs)
	for i, p := range data.moving {
		d.updateMoving(uint64(5000+i), p)
	}
	for i, r := range resident {
		d.updatePrivate(uint64(i+1), r)
	}
	// Users whose regions hang past the world edge: accepted by the
	// server (the region intersects the world) and reachable by queries
	// lying entirely outside it — the routed tier must keep both paths
	// identical.
	edge := []geo.Rect{
		geo.RectAround(geo.Pt(0.001, 0.5), 0.03),
		geo.RectAround(geo.Pt(0.5, 0.999), 0.03),
		geo.RectAround(geo.Pt(0.999, 0.001), 0.05),
	}
	for i, r := range edge {
		d.updatePrivate(uint64(401+i), r)
	}
	d.stats()

	src := rng.New(seed ^ 0xD1FF)
	// Query sweep: every algorithm's cloaked regions, all three kinds.
	for ai := range queries {
		for k := 0; k < 20; k++ {
			r := queries[ai][src.Intn(len(queries[ai]))]
			q := server.PrivateRangeQuery{
				Region: r,
				Radius: 0.05 * src.Float64(),
				Class:  diffClasses[src.Intn(len(diffClasses))],
			}
			if src.Intn(2) == 0 {
				q.Mode = server.RangeMBR
			}
			d.privateRange(q)
			d.privateNN(server.PrivateNNQuery{Region: r, Class: diffClasses[src.Intn(len(diffClasses))]})
			d.publicCount(r)
		}
	}

	// Error and boundary paths.
	bad := geo.Rect{Min: geo.Pt(0.8, 0.8), Max: geo.Pt(0.2, 0.2)}
	d.privateRange(server.PrivateRangeQuery{Region: bad, Radius: 0.01})
	d.privateRange(server.PrivateRangeQuery{Region: geo.R(0.1, 0.1, 0.2, 0.2), Radius: -1})
	d.privateNN(server.PrivateNNQuery{Region: bad})
	d.publicCount(bad)
	d.updateMoving(6000, geo.Pt(2, 2))                      // out of world
	d.updatePrivate(500, bad)                               // invalid region
	d.updatePrivate(500, geo.RectAround(geo.Pt(7, 7), 0.1)) // outside world
	far := geo.RectAround(geo.Pt(5, 5), 0.3)                // valid rect, no world overlap
	d.privateRange(server.PrivateRangeQuery{Region: far, Radius: 0.01})
	d.privateNN(server.PrivateNNQuery{Region: far})
	d.publicCount(far)
	// Queries entirely outside the world that still overlap edge-hanging
	// resident regions.
	d.publicCount(geo.R(-0.05, 0.4, -0.001, 0.6))
	d.publicCount(geo.R(0.4, 1.001, 0.6, 1.05))
	// Whole-world and over-the-edge queries.
	d.publicCount(diffWorld.Expand(0.2))
	d.privateRange(server.PrivateRangeQuery{Region: diffWorld.Expand(0.1), Radius: 0.01})

	// Mixed batches.
	for round := 0; round < 3; round++ {
		d.batch(buildDiffEntries(src, queries, 40))
	}

	// Moving churn: every object relocates (crossing tile boundaries, so
	// routed handoffs fire), some are removed — known and unknown ids.
	for round := 0; round < 2; round++ {
		for i := range data.moving {
			d.updateMoving(uint64(5000+i), geo.Pt(src.Float64(), src.Float64()))
		}
		for k := 0; k < 10; k++ {
			d.removeMoving(uint64(5000 + src.Intn(100)))
		}
		for k := 0; k < 10; k++ {
			r := queries[src.Intn(len(queries))][src.Intn(len(queries[0]))]
			d.privateRange(server.PrivateRangeQuery{Region: r, Radius: 0.02})
		}
	}

	// User churn: regions move across tiles (replication sets change),
	// users leave — known and unknown ids — and counts must still agree.
	for k := 0; k < 120; k++ {
		id := uint64(src.Intn(400)) + 1
		c := geo.Pt(src.Float64(), src.Float64())
		d.updatePrivate(id, geo.RectAround(c, 0.005+0.1*src.Float64()).Clip(diffWorld))
	}
	for k := 0; k < 30; k++ {
		d.removePrivate(uint64(src.Intn(450)) + 1)
	}
	d.stats()
	for ai := range queries {
		for k := 0; k < 5; k++ {
			d.publicCount(queries[ai][src.Intn(len(queries[ai]))])
		}
	}
}

// TestDifferentialRoutedEqualsSingle is the tier equivalence proof: all
// committed seeds × shard counts, wire to wire.
func TestDifferentialRoutedEqualsSingle(t *testing.T) {
	counts := diffShardCounts(t)
	for _, seed := range diffSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			data := buildDiffData(seed)
			resident, queries := cloakRegions(t, seed, data)
			for _, n := range counts {
				n := n
				t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
					single := startSingle(t)
					defer single.Close()
					routed := startRouted(t, n)
					defer routed.Close()
					d := &duo{t: t, single: single.cli, routed: routed.cli}
					runDifferential(t, d, data, resident, queries, seed)
					if n == 1 {
						return
					}
					// Both routed paths answered part of the script: whole
					// requests relayed to their one owner, and scatters
					// across an ownership boundary.
					relayed := routed.counter("route_relays_total", obs.L("outcome", "relayed"))
					straddles := routed.counter("route_straddles_total")
					if relayed == 0 || straddles == 0 {
						t.Fatalf("relayed %d requests and straddled %d: both paths must run", relayed, straddles)
					}
				})
			}
		})
	}
}

// TestShardMapReportsTopology: the router service answers MsgShardMap
// with a consistent tile→shard table; a plain lbsd rejects it.
func TestShardMapReportsTopology(t *testing.T) {
	routed := startRouted(t, 3)
	defer routed.Close()
	topo, err := routed.cli.ShardMap()
	if err != nil {
		t.Fatal(err)
	}
	if topo.Shards != 3 || topo.World != diffWorld {
		t.Fatalf("topology %+v", topo)
	}
	if len(topo.Owners) != topo.Cols*topo.Rows {
		t.Fatalf("%d owners for %dx%d grid", len(topo.Owners), topo.Cols, topo.Rows)
	}
	if len(topo.Addrs) != 3 {
		t.Fatalf("addrs %v", topo.Addrs)
	}
	single := startSingle(t)
	defer single.Close()
	if _, err := single.cli.ShardMap(); err == nil {
		t.Fatal("single lbsd accepted MsgShardMap")
	}
}

// TestRelayedNNFallsBack pins the relay's NN check at every routed shard
// count, whatever ROUTER_TEST_SHARDS narrows the sweep to. Two queries
// share one region inside a tile of shard 0, next to a tile of another
// shard. The "bank" query's only candidate sits beside the region, so
// the relayed reply stays on shard 0 and is kept. The "atm" query's only
// candidate, also on shard 0, lies across the tile from the region: the
// reply's bound reaches the other shard's tile, so the router must drop
// it and run the two-wave path.
func TestRelayedNNFallsBack(t *testing.T) {
	for _, n := range diffShardCounts(t) {
		if n == 1 {
			continue
		}
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			single := startSingle(t)
			defer single.Close()
			routed := startRouted(t, n)
			defer routed.Close()
			d := &duo{t: t, single: single.cli, routed: routed.cli}

			// A tile of shard 0 whose right or upper neighbour another
			// shard owns; u points from the tile across that edge.
			topo := routed.rt.Topology()
			w := diffWorld.Width() / float64(topo.Cols)
			var corner, u, v geo.Point
			found := false
			for tl := 0; tl < len(topo.Owners) && !found; tl++ {
				c, r := tl%topo.Cols, tl/topo.Cols
				corner = geo.Pt(float64(c)*w, float64(r)*w)
				switch {
				case topo.Owners[tl] != 0:
				case c+1 < topo.Cols && topo.Owners[tl+1] != 0:
					u, v, found = geo.Pt(1, 0), geo.Pt(0, 1), true
				case r+1 < topo.Rows && topo.Owners[tl+topo.Cols] != 0:
					u, v, found = geo.Pt(0, 1), geo.Pt(1, 0), true
				}
			}
			if !found {
				t.Fatal("shard 0 borders no other shard")
			}
			at := func(a, b float64) geo.Point { // a across the tile along u, b along v
				return geo.Pt(corner.X+w*(a*u.X+b*v.X), corner.Y+w*(a*u.Y+b*v.Y))
			}
			objs := []server.PublicObject{
				{ID: 1, Class: "atm", Loc: at(0.1, 0.5)},
				{ID: 2, Class: "bank", Loc: at(0.8, 0.5)},
			}
			for i := 0; i < 50; i++ { // gas stations along a diagonal of the world
				objs = append(objs, server.PublicObject{ID: uint64(10 + i), Class: "gas", Loc: geo.Pt(0.01+0.0196*float64(i), 0.99-0.0196*float64(i))})
			}
			d.loadStationary(objs)
			region := geo.RectAround(at(0.85, 0.5), 0.01*w)

			d.privateNN(server.PrivateNNQuery{Region: region, Class: "bank"})
			relayed := routed.counter("route_relays_total", obs.L("outcome", "relayed"))
			if fallback := routed.counter("route_relays_total", obs.L("outcome", "fallback")); relayed != 1 || fallback != 0 {
				t.Fatalf("nearby candidate: %d relayed, %d fallbacks, want 1 and 0", relayed, fallback)
			}
			d.privateNN(server.PrivateNNQuery{Region: region, Class: "atm"})
			if fallback := routed.counter("route_relays_total", obs.L("outcome", "fallback")); fallback != 1 {
				t.Fatalf("candidate across the tile: %d fallbacks, want 1", fallback)
			}
		})
	}
}
