package server

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/prob"
	"repro/internal/rng"
)

// The reference model answers every query kind from the definitions in
// Section 6 with linear scans — over the stationary objects the test holds
// beside the server (diffServer) and the server's raw moving and private
// stores — no R-tree,
// no grid probe, no region index, no scratch, no memo. The per-query
// methods and BatchQuery run one answer function per kind, so agreeing
// with each other proves only that the fan-out keeps entries apart;
// agreeing with this model proves the kernel computes the right answer.
// Float operations are the same geo/prob primitives applied to the same
// operands, so equality is bit for bit.

// refLess is the canonical result order, written out independently of
// cmpObjects: ascending (ID, Class, Loc.X, Loc.Y).
func refLess(a, b PublicObject) bool {
	if a.ID != b.ID {
		return a.ID < b.ID
	}
	if a.Class != b.Class {
		return a.Class < b.Class
	}
	if a.Loc.X != b.Loc.X {
		return a.Loc.X < b.Loc.X
	}
	return a.Loc.Y < b.Loc.Y
}

func refSort(objs []PublicObject) {
	sort.Slice(objs, func(i, j int) bool { return refLess(objs[i], objs[j]) })
}

// refRange is Figure 5a by definition: every stationary object of the
// class — and, without a class, every moving object — inside the expanded
// MBR and, in rounded mode, within Radius of the region.
func refRange(s *diffServer, q PrivateRangeQuery) ([]PublicObject, error) {
	if !q.Region.Valid() {
		return nil, fmt.Errorf("server: invalid query region %v", q.Region)
	}
	if q.Radius < 0 || math.IsNaN(q.Radius) {
		return nil, fmt.Errorf("server: invalid radius %g", q.Radius)
	}
	mbr := q.Region.Expand(q.Radius)
	near := func(p geo.Point) bool {
		return mbr.Contains(p) && (q.Mode == RangeMBR || geo.MinDist(p, q.Region) <= q.Radius)
	}
	var out []PublicObject
	for _, o := range s.stationary {
		if near(o.Loc) && (q.Class == "" || o.Class == q.Class) {
			out = append(out, o)
		}
	}
	if q.Class == "" {
		for _, m := range s.moving.All(nil) {
			if near(m.Loc) {
				out = append(out, PublicObject{ID: m.ID, Loc: m.Loc})
			}
		}
	}
	refSort(out)
	return out, nil
}

// refNNParts is the min–max filter by definition: the bound is the least
// MaxDist² of any class-matching object, the candidates everything whose
// MinDist² does not exceed it.
func refNNParts(s *diffServer, q PrivateNNQuery) (NNParts, error) {
	if !q.Region.Valid() {
		return NNParts{}, fmt.Errorf("server: invalid query region %v", q.Region)
	}
	parts := NNParts{Bound: math.Inf(1)}
	for _, o := range s.stationary {
		if q.Class != "" && o.Class != q.Class {
			continue
		}
		if d := geo.MaxDist2(o.Loc, q.Region); d < parts.Bound {
			parts.Bound = d
		}
	}
	for _, o := range s.stationary {
		if (q.Class == "" || o.Class == q.Class) && geo.MinDist2(o.Loc, q.Region) <= parts.Bound {
			parts.Candidates = append(parts.Candidates, o)
		}
	}
	refSort(parts.Candidates)
	return parts, nil
}

// refClipTol is the absolute slack of the reference clip's half-plane
// tests, in squared world units: far below any gap random data produces,
// far above the rounding of the arithmetic.
const refClipTol = 1e-12

// refCell is the part of the region where o is nearest among objs — the
// region, as a polygon, clipped by the bisector half-plane
// {p : |p−o|² ≤ |p−c|² + refClipTol} of every other object c. An empty
// polygon means o is nearest nowhere in the region.
func refCell(o PublicObject, objs []PublicObject, region geo.Rect) []geo.Point {
	c := region.Corners()
	poly := c[:]
	var next []geo.Point
	for _, other := range objs {
		if other.ID == o.ID {
			continue
		}
		// |p−o|² − |p−c|² = 2p·(c−o) − (|c|² − |o|²), affine in p.
		dx, dy := other.Loc.X-o.Loc.X, other.Loc.Y-o.Loc.Y
		k := other.Loc.X*other.Loc.X + other.Loc.Y*other.Loc.Y - o.Loc.X*o.Loc.X - o.Loc.Y*o.Loc.Y
		g := func(p geo.Point) float64 { return 2*(p.X*dx+p.Y*dy) - k - refClipTol }
		next = next[:0]
		for i, p := range poly {
			q := poly[(i+1)%len(poly)]
			gp, gq := g(p), g(q)
			if gp <= 0 {
				next = append(next, p)
			}
			if (gp < 0 && gq > 0) || (gp > 0 && gq < 0) {
				next = append(next, p.Lerp(q, gp/(gp-gq)))
			}
		}
		if len(next) == 0 {
			return nil
		}
		poly, next = append([]geo.Point(nil), next...), poly
	}
	return poly
}

// refNNObjects is Figure 5b by definition over a plain object list: every
// object whose Voronoi cell meets the region, in canonical order. No index,
// no min–max bound and no boundary walk: each object's cell is clipped
// against all the others.
func refNNObjects(objs []PublicObject, region geo.Rect) []PublicObject {
	var out []PublicObject
	for _, o := range objs {
		if refCell(o, objs, region) != nil {
			out = append(out, o)
		}
	}
	refSort(out)
	return out
}

// refClassObjects lists the stationary objects a private NN query of the
// class ranges over.
func refClassObjects(s *diffServer, class string) []PublicObject {
	var objs []PublicObject
	for _, o := range s.stationary {
		if class == "" || o.Class == class {
			objs = append(objs, o)
		}
	}
	return objs
}

// refNN is Figure 5b by definition: the exact answer over every
// class-matching object, with the min–max superset size it starts from.
func refNN(s *diffServer, q PrivateNNQuery) (PrivateNNResult, error) {
	parts, err := refNNParts(s, q)
	if err != nil {
		return PrivateNNResult{}, err
	}
	return PrivateNNResult{
		Candidates:   refNNObjects(refClassObjects(s, q.Class), q.Region),
		SupersetSize: len(parts.Candidates),
	}, nil
}

// refBruteNN is the client's answer at p by brute force: the nearest of
// objs, ties to the lower ID as RefineNN breaks them.
func refBruteNN(p geo.Point, objs []PublicObject) PublicObject {
	best := objs[0]
	for _, o := range objs[1:] {
		if d, bd := p.Dist2(o.Loc), p.Dist2(best.Loc); d < bd || (d == bd && o.ID < best.ID) {
			best = o
		}
	}
	return best
}

// checkNNSound asserts sampled soundness: at every point of an n×n lattice
// over the region (corners and edges included) and at every object inside
// it, the brute-force nearest neighbor of objs is in the answer.
func checkNNSound(t testing.TB, region geo.Rect, answer, objs []PublicObject, n int) {
	t.Helper()
	if len(objs) == 0 {
		return
	}
	in := map[uint64]bool{}
	for _, o := range answer {
		in[o.ID] = true
	}
	var pts []geo.Point
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			fx, fy := float64(i)/float64(n-1), float64(j)/float64(n-1)
			pts = append(pts, geo.Pt(region.Min.X+region.Width()*fx, region.Min.Y+region.Height()*fy))
		}
	}
	for _, o := range objs {
		if region.Contains(o.Loc) {
			pts = append(pts, o.Loc)
		}
	}
	for _, p := range pts {
		if nn := refBruteNN(p, objs); !in[nn.ID] {
			t.Fatalf("region %v: the nearest neighbor %d of %v is missing from the answer %v", region, nn.ID, p, answer)
		}
	}
}

// checkNNMinimal asserts minimality: every answered object has a witness
// point of the region — a vertex of its clipped cell — where it is nearest
// among objs up to the clip's slack.
func checkNNMinimal(t testing.TB, region geo.Rect, answer, objs []PublicObject) {
	t.Helper()
	for _, o := range answer {
		cell := refCell(o, objs, region)
		if cell == nil {
			t.Fatalf("region %v: answered object %d (%v) is nearest nowhere in it", region, o.ID, o.Loc)
		}
		w := region.ClampPoint(cell[0])
		if d, best := w.Dist2(o.Loc), w.Dist2(refBruteNN(w, objs).Loc); d > best+4*refClipTol {
			t.Fatalf("region %v: answered object %d is %g from its witness %v, the nearest is %g", region, o.ID, d, w, best)
		}
	}
}

// refCountProbs is Figure 6a's first half by definition: every stored
// region with positive overlap probability, by ascending user id.
func refCountProbs(s *Server, query geo.Rect) []UserProb {
	pairs := []UserProb{}
	for _, rec := range s.privateSnapshot() {
		if p := prob.Overlap(rec.Region, query); p > 0 {
			pairs = append(pairs, UserProb{ID: rec.ID, P: p})
		}
	}
	return pairs
}

// refCount folds the pairs by the determinism rule: ascending probability.
func refCount(pairs []UserProb) PublicRangeCountResult {
	probs := make([]float64, len(pairs))
	for i, up := range pairs {
		probs[i] = up.P
	}
	sort.Float64s(probs)
	return PublicRangeCountResult{Answer: prob.RangeCount(probs), NaiveCount: len(pairs)}
}

// refEntry answers one batch entry from the model.
func refEntry(s *diffServer, i int, e BatchEntry) BatchItemResult {
	var item BatchItemResult
	var err error
	switch e.Kind {
	case BatchPrivateRange:
		item.Range, err = refRange(s, e.Range)
	case BatchPrivateNN:
		item.NN, err = refNN(s, e.NN)
	case BatchPublicCount:
		if !e.Count.Query.Valid() {
			err = fmt.Errorf("server: invalid query %v", e.Count.Query)
		} else {
			item.Count = refCount(refCountProbs(s.Server, e.Count.Query))
		}
	}
	if err != nil {
		return BatchItemResult{Err: &BatchEntryError{Index: i, Kind: e.Kind, Err: err}}
	}
	return item
}

// TestReferenceModel runs the committed seed mixes — all three kinds, both
// range modes, class filters, invalid entries — through the per-query
// methods, the shard-partial forms and BatchQuery, against the model. The
// stationary set is churned between rounds, and each round checks the
// churned server and its snapshot → restore copy.
func TestReferenceModel(t *testing.T) {
	for _, seed := range diffSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			churned := buildDiffServer(t, seed)
			src := rng.New(seed ^ 0x4EF)
			for round := 0; round < 3; round++ {
				if round > 0 {
					churned.churn(t, src)
				}
				var buf bytes.Buffer
				restored := &diffServer{Server: newServer(t), stationary: churned.stationary}
				if err := churned.Snapshot(&buf); err != nil || restored.Restore(&buf) != nil {
					t.Fatalf("snapshot round trip failed: %v", err)
				}
				entries := buildDiffBatch(src, 40)
				for _, s := range []*diffServer{churned, restored} {
					want := make([]BatchItemResult, len(entries))
					for i, e := range entries {
						want[i] = refEntry(s, i, e)
					}
					assertItemsEqual(t, sequentialBatch(s.Server, entries), want)
					assertItemsEqual(t, s.BatchQuery(entries).Items, want)
					for i, e := range entries {
						checkPartialForms(t, s, i, e, want[i])
					}
				}
			}
		})
	}
}

// checkPartialForms compares the shard-partial methods, their combiners
// and the private-count reduction of one entry against the model.
func checkPartialForms(t *testing.T, s *diffServer, i int, e BatchEntry, want BatchItemResult) {
	t.Helper()
	sameErr := func(got error) bool {
		if want.Err == nil || got == nil {
			if want.Err != nil || got != nil {
				t.Errorf("entry %d: partial error = %v, model error = %v", i, got, want.Err)
			}
			return false
		}
		if cause := want.Err.(*BatchEntryError).Err.Error(); got.Error() != cause {
			t.Errorf("entry %d: partial error %q, model error %q", i, got, cause)
		}
		return true
	}
	switch e.Kind {
	case BatchPrivateNN:
		parts, err := s.PrivateNNParts(e.NN)
		if sameErr(err) {
			return
		}
		wantParts, _ := refNNParts(s, e.NN)
		if !reflect.DeepEqual(parts, wantParts) {
			t.Errorf("entry %d: NN parts diverge from the model\n got %+v\nwant %+v", i, parts, wantParts)
		}
		if got := CombineNNParts(e.NN.Region, parts); !reflect.DeepEqual(got, want.NN) {
			t.Errorf("entry %d: combined NN parts diverge from the model", i)
		}
	case BatchPublicCount:
		pairs, err := s.PublicCountProbs(e.Count)
		if sameErr(err) {
			return
		}
		wantPairs := refCountProbs(s.Server, e.Count.Query)
		if !reflect.DeepEqual(pairs, wantPairs) {
			t.Errorf("entry %d: count pairs diverge from the model\n got %+v\nwant %+v", i, pairs, wantPairs)
		}
		if got := CombineCountProbs(pairs); !reflect.DeepEqual(got, want.Count) {
			t.Errorf("entry %d: combined count pairs diverge from the model", i)
		}
		scan, err := s.PublicRangeCountScan(e.Count)
		if err != nil || !reflect.DeepEqual(scan, want.Count) {
			t.Errorf("entry %d: full-scan baseline diverges from the model (err %v)", i, err)
		}
		// The private-count reduction: the same rectangle reached by
		// expanding its center, minus one of the users it overlaps.
		if len(wantPairs) == 0 {
			return
		}
		exclude := wantPairs[len(wantPairs)/2].ID
		q := PrivateCountQuery{Region: e.Count.Query, ExcludeID: exclude}
		var others []UserProb
		for _, up := range wantPairs {
			if up.ID != exclude {
				others = append(others, up)
			}
		}
		got, err := s.PrivateCount(q)
		if err != nil || !reflect.DeepEqual(got, refCount(others).Answer) {
			t.Errorf("entry %d: private count diverges from the model (err %v)", i, err)
		}
	}
}

// TestQueryAccounting pins the one-recording-site contract: every public
// per-query method and every batch entry moves its class's
// lbs_*_queries_total by exactly one, every single query observes
// lbs_query_seconds{class} exactly once (batch entries are timed as a
// batch, under lbs_batch_seconds), and every count, single or batch,
// observes lbs_public_count_users exactly once.
func TestQueryAccounting(t *testing.T) {
	s := batchFixture(t)
	rq := PrivateRangeQuery{Region: geo.R(0.1, 0.1, 0.3, 0.3), Radius: 0.05}
	nq := PrivateNNQuery{Region: geo.R(0.6, 0.6, 0.7, 0.7)}
	cq := PublicRangeCountQuery{Query: geo.R(0.2, 0.2, 0.5, 0.5)}
	pq := PublicNNQuery{From: geo.Pt(0.4, 0.4), Samples: 100}
	classes := []string{"range", "nn", "count", "public_nn"}
	observed := func(class string) uint64 {
		label := map[string]string{"range": "private_range", "nn": "private_nn", "count": "public_count", "public_nn": "public_nn"}[class]
		m, _ := s.Registry().Find("lbs_query_seconds", obs.L("class", label))
		return m.Hist.Count()
	}
	served := func(class string) uint64 {
		m := s.Metrics()
		return map[string]uint64{"range": m.PrivateRangeQs, "nn": m.PrivateNNQs, "count": m.PublicCountQs, "public_nn": m.PublicNNQs}[class]
	}
	countUsers := func() uint64 { return s.met.countUsers.Snapshot().Count() }
	cases := []struct {
		name, class string
		timed       uint64 // lbs_query_seconds observations expected
		run         func()
	}{
		{"PrivateRange", "range", 1, func() { s.PrivateRange(rq) }},
		{"PrivateNN", "nn", 1, func() { s.PrivateNN(nq) }},
		{"PrivateNNParts", "nn", 1, func() { s.PrivateNNParts(nq) }},
		{"PublicRangeCount", "count", 1, func() { s.PublicRangeCount(cq) }},
		{"PublicCountProbs", "count", 1, func() { s.PublicCountProbs(cq) }},
		{"PrivateCount", "count", 1, func() { s.PrivateCount(PrivateCountQuery{Region: cq.Query}) }},
		{"PublicNN", "public_nn", 1, func() { s.PublicNN(pq) }},
		{"batch range entry", "range", 0, func() { s.BatchQuery([]BatchEntry{{Kind: BatchPrivateRange, Range: rq}}) }},
		{"batch NN entry", "nn", 0, func() { s.BatchQuery([]BatchEntry{{Kind: BatchPrivateNN, NN: nq}}) }},
		{"batch count entry", "count", 0, func() { s.BatchQuery([]BatchEntry{{Kind: BatchPublicCount, Count: cq}}) }},
	}
	for _, tc := range cases {
		before := make([][2]uint64, len(classes))
		for k, class := range classes {
			before[k] = [2]uint64{served(class), observed(class)}
		}
		usersBefore := countUsers()
		tc.run()
		// The count kernel observes its users once per count, whatever
		// the entry point.
		wantUsers := uint64(0)
		if tc.class == "count" {
			wantUsers = 1
		}
		if d := countUsers() - usersBefore; d != wantUsers {
			t.Errorf("%s: lbs_public_count_users observed %d times, want %d", tc.name, d, wantUsers)
		}
		for k, class := range classes {
			wantServed, wantTimed := uint64(0), uint64(0)
			if class == tc.class {
				wantServed, wantTimed = 1, tc.timed
			}
			if d := served(class) - before[k][0]; d != wantServed {
				t.Errorf("%s: %s queries_total moved by %d, want %d", tc.name, class, d, wantServed)
			}
			if d := observed(class) - before[k][1]; d != wantTimed {
				t.Errorf("%s: lbs_query_seconds{%s} observed %d times, want %d", tc.name, class, d, wantTimed)
			}
		}
	}
	// An invalid query is neither served nor timed.
	before := [2]uint64{served("range"), observed("range")}
	if _, err := s.PrivateRange(PrivateRangeQuery{Region: rq.Region, Radius: -1}); err == nil {
		t.Fatal("invalid radius accepted")
	}
	if served("range") != before[0] || observed("range") != before[1] {
		t.Error("invalid query moved the range series")
	}
}
