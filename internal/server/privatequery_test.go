package server

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/geo"
	"repro/internal/rng"
)

func TestPrivateRangeValidation(t *testing.T) {
	s := newServer(t)
	if _, err := s.PrivateRange(PrivateRangeQuery{Region: geo.Rect{Min: geo.Pt(1, 1)}, Radius: 0.1}); err == nil {
		t.Error("invalid region accepted")
	}
	if _, err := s.PrivateRange(PrivateRangeQuery{Region: geo.R(0, 0, 0.1, 0.1), Radius: -1}); err == nil {
		t.Error("negative radius accepted")
	}
	if _, err := s.PrivateRange(PrivateRangeQuery{Region: geo.R(0, 0, 0.1, 0.1), Radius: math.NaN()}); err == nil {
		t.Error("NaN radius accepted")
	}
}

// Invariant I5: the candidate set contains every object within radius of
// every point of the region. Verified against brute force over a lattice of
// query positions.
func TestPrivateRangeCompleteness(t *testing.T) {
	s := newServer(t)
	objs := loadObjects(t, s, 2000, "gas", 2)
	region := geo.R(0.42, 0.31, 0.55, 0.46)
	const radius = 0.08
	got, err := s.PrivateRange(PrivateRangeQuery{Region: region, Radius: radius})
	if err != nil {
		t.Fatal(err)
	}
	inCand := map[uint64]bool{}
	for _, o := range got {
		inCand[o.ID] = true
	}
	const n = 20
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p := geo.Pt(
				region.Min.X+region.Width()*float64(i)/(n-1),
				region.Min.Y+region.Height()*float64(j)/(n-1),
			)
			for _, o := range objs {
				if p.Dist(o.Loc) <= radius && !inCand[o.ID] {
					t.Fatalf("object %d within radius of %v missing from candidates", o.ID, p)
				}
			}
		}
	}
}

func TestPrivateRangeRoundedTighterThanMBR(t *testing.T) {
	s := newServer(t)
	loadObjects(t, s, 5000, "gas", 3)
	region := geo.R(0.4, 0.4, 0.5, 0.5)
	rounded, err := s.PrivateRange(PrivateRangeQuery{Region: region, Radius: 0.1, Mode: RangeRounded})
	if err != nil {
		t.Fatal(err)
	}
	mbr, err := s.PrivateRange(PrivateRangeQuery{Region: region, Radius: 0.1, Mode: RangeMBR})
	if err != nil {
		t.Fatal(err)
	}
	if len(rounded) >= len(mbr) {
		t.Errorf("rounded (%d) should be tighter than MBR (%d)", len(rounded), len(mbr))
	}
	// Rounded candidates all satisfy the exact predicate.
	for _, o := range rounded {
		if geo.MinDist(o.Loc, region) > 0.1+1e-12 {
			t.Fatalf("rounded candidate %d violates predicate", o.ID)
		}
	}
	// Every rounded candidate also appears in the MBR superset.
	inMBR := map[uint64]bool{}
	for _, o := range mbr {
		inMBR[o.ID] = true
	}
	for _, o := range rounded {
		if !inMBR[o.ID] {
			t.Fatalf("rounded candidate %d missing from MBR superset", o.ID)
		}
	}
}

func TestPrivateRangeClassFilterAndMoving(t *testing.T) {
	s := newServer(t)
	if err := s.LoadStationary([]PublicObject{
		{ID: 1, Class: "gas", Loc: geo.Pt(0.5, 0.5)},
		{ID: 2, Class: "cafe", Loc: geo.Pt(0.51, 0.51)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateMoving(100, geo.Pt(0.52, 0.52)); err != nil {
		t.Fatal(err)
	}
	q := PrivateRangeQuery{Region: geo.R(0.45, 0.45, 0.55, 0.55), Radius: 0.1}

	all, _ := s.PrivateRange(q)
	if len(all) != 3 {
		t.Errorf("unfiltered candidates = %d, want 3 (2 stationary + 1 moving)", len(all))
	}
	q.Class = "gas"
	gas, _ := s.PrivateRange(q)
	if len(gas) != 1 || gas[0].ID != 1 {
		t.Errorf("gas candidates = %v", gas)
	}
}

func TestPrivateRangeDegenerateRegion(t *testing.T) {
	// k=1 users send their exact point; the query degenerates to a classic
	// range query.
	s := newServer(t)
	objs := loadObjects(t, s, 1000, "gas", 4)
	p := geo.Pt(0.5, 0.5)
	got, err := s.PrivateRange(PrivateRangeQuery{Region: geo.PointRect(p), Radius: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, o := range objs {
		if p.Dist(o.Loc) <= 0.1 {
			want++
		}
	}
	if len(got) != want {
		t.Errorf("degenerate private range = %d, brute = %d", len(got), want)
	}
}

func TestPrivateNNValidation(t *testing.T) {
	s := newServer(t)
	if _, err := s.PrivateNN(PrivateNNQuery{Region: geo.Rect{Min: geo.Pt(1, 1)}}); err == nil {
		t.Error("invalid region accepted")
	}
}

func TestPrivateNNEmptyServer(t *testing.T) {
	s := newServer(t)
	res, err := s.PrivateNN(PrivateNNQuery{Region: geo.R(0.4, 0.4, 0.6, 0.6)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 0 {
		t.Error("candidates from empty server")
	}
}

// Invariant I6: the candidate set contains the exact NN of every point of
// the region.
func TestPrivateNNCompleteness(t *testing.T) {
	s := newServer(t)
	objs := loadObjects(t, s, 3000, "gas", 5)
	src := rng.New(77)
	for trial := 0; trial < 25; trial++ {
		cx, cy := src.Float64()*0.8+0.1, src.Float64()*0.8+0.1
		w, h := src.Float64()*0.15, src.Float64()*0.15
		region := geo.R(cx, cy, cx+w, cy+h)
		res, err := s.PrivateNN(PrivateNNQuery{Region: region})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Candidates) == 0 {
			t.Fatal("no candidates")
		}
		if res.SupersetSize < len(res.Candidates) {
			t.Fatalf("superset %d < candidates %d", res.SupersetSize, len(res.Candidates))
		}
		if !CandidateCompleteness(region, 15, res.Candidates, objs) {
			t.Fatalf("trial %d: candidate set misses a true NN (region %v, %d candidates)",
				trial, region, len(res.Candidates))
		}
	}
}

// The answer is exactly Figure 5b's set: refinement at dense sample
// points always picks the brute-force NN (soundness), and every candidate
// is the nearest neighbor of some point of the region (minimality) — no
// object that others beat everywhere is shipped.
func TestPrivateNNRefinementConsistency(t *testing.T) {
	s := newServer(t)
	objs := loadObjects(t, s, 2000, "gas", 6)
	region := geo.R(0.3, 0.3, 0.45, 0.4)
	res, err := s.PrivateNN(PrivateNNQuery{Region: region})
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p := geo.Pt(
				region.Min.X+region.Width()*float64(i)/(n-1),
				region.Min.Y+region.Height()*float64(j)/(n-1),
			)
			got, ok := RefineNN(p, res.Candidates)
			if !ok {
				t.Fatal("refinement found no candidate")
			}
			if want := refBruteNN(p, objs); got.ID != want.ID {
				t.Fatalf("refined NN %d (d²=%v) != brute NN %d (d²=%v) at %v",
					got.ID, p.Dist2(got.Loc), want.ID, p.Dist2(want.Loc), p)
			}
		}
	}
	checkNNMinimal(t, region, res.Candidates, objs)
}

// A region is only required to be finite, so its squared distances may
// overflow to +Inf: the answer must stay sound (here: every object) and the
// boundary walk must not index past its candidates.
func TestPrivateNNHugeRegion(t *testing.T) {
	s := newServer(t)
	objs := loadObjects(t, s, 300, "gas", 12)
	for _, region := range []geo.Rect{
		geo.R(-1e200, -1e200, 1e200, 1e200),
		geo.R(-1e300, 0.5, 1e300, 0.5),
		geo.PointRect(geo.Pt(1e300, -1e300)),
	} {
		res, err := s.PrivateNN(PrivateNNQuery{Region: region})
		if err != nil {
			t.Fatal(err)
		}
		checkNNSound(t, region, res.Candidates, objs, 5)
	}
}

// TestPrivateNNOneSnapshot runs private NN queries while another goroutine
// rewrites the stationary set. PrivateNN decides outside the server lock,
// so every answer must still be the answer of one state the writer passed
// through, never survivors read in one state and resolved in another.
//   - reload swaps between two bulk loads that share IDs but not locations
//     or classes;
//   - relocate alternates the base set with the base set less one of the
//     answer's objects, cycling through them: every slot above the dropped
//     object's shifts down by one, so survivors resolved against the other
//     store would name other objects.
func TestPrivateNNOneSnapshot(t *testing.T) {
	src := rng.New(31)
	var snaps [2][]PublicObject
	for k, class := range []string{"a", "b"} {
		for i := 0; i < 400; i++ {
			snaps[k] = append(snaps[k], PublicObject{ID: uint64(i + 1), Class: class, Loc: geo.Pt(src.Float64(), src.Float64())})
		}
	}
	q := PrivateNNQuery{Region: geo.R(0.3, 0.3, 0.6, 0.6)}
	answer := func(objs []PublicObject) PrivateNNResult {
		res, err := loadedServer(t, objs).PrivateNN(q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := answer(snaps[0])
	relocated := []PrivateNNResult{base}
	var rests [][]PublicObject
	for _, o := range base.Candidates {
		rest := slices.DeleteFunc(slices.Clone(snaps[0]), func(p PublicObject) bool { return p.ID == o.ID })
		rests = append(rests, rest)
		relocated = append(relocated, answer(rest))
	}
	cases := []struct {
		name  string
		want  []PrivateNNResult // the answers of the states the writer passes through
		write func(s *Server, k int) error
	}{
		{"reload", []PrivateNNResult{base, answer(snaps[1])}, func(s *Server, k int) error {
			return s.LoadStationary(snaps[k%2])
		}},
		{"relocate", relocated, func(s *Server, k int) error {
			if k%2 == 0 {
				return s.LoadStationary(snaps[0])
			}
			return s.LoadStationary(rests[k/2%len(rests)])
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := loadedServer(t, snaps[0])
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				for k := 0; ; k++ {
					select {
					case <-stop:
						return
					default:
					}
					if err := tc.write(s, k); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			for i := 0; i < 500; i++ {
				got, err := s.PrivateNN(q)
				if err != nil || !slices.ContainsFunc(tc.want, func(w PrivateNNResult) bool { return reflect.DeepEqual(got, w) }) {
					t.Errorf("query %d: answer belongs to no state the writer passed through (err %v)", i, err)
					break
				}
			}
			close(stop)
			<-done
		})
	}
}

func TestPrivateNNClassFilter(t *testing.T) {
	s := newServer(t)
	if err := s.LoadStationary([]PublicObject{
		{ID: 1, Class: "gas", Loc: geo.Pt(0.9, 0.9)},
		{ID: 2, Class: "cafe", Loc: geo.Pt(0.52, 0.52)}, // nearer but wrong class
	}); err != nil {
		t.Fatal(err)
	}
	res, err := s.PrivateNN(PrivateNNQuery{Region: geo.R(0.45, 0.45, 0.55, 0.55), Class: "gas"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 1 || res.Candidates[0].ID != 1 {
		t.Errorf("class-filtered NN = %v", res.Candidates)
	}
}

func TestPrivateNNDegenerateRegionIsExact(t *testing.T) {
	s := newServer(t)
	objs := loadObjects(t, s, 1000, "gas", 7)
	p := geo.Pt(0.37, 0.62)
	res, err := s.PrivateNN(PrivateNNQuery{Region: geo.PointRect(p)})
	if err != nil {
		t.Fatal(err)
	}
	// For a point region the candidate set should collapse to the exact NN
	// (plus possible exact ties).
	bestD := math.Inf(1)
	for _, o := range objs {
		if d := p.Dist2(o.Loc); d < bestD {
			bestD = d
		}
	}
	for _, c := range res.Candidates {
		if p.Dist2(c.Loc) != bestD {
			t.Fatalf("degenerate-region candidate %d is not the exact NN", c.ID)
		}
	}
	if len(res.Candidates) < 1 {
		t.Fatal("no candidate for point region")
	}
}

// Growth property (the privacy/QoS trade-off of E5): candidate sets grow
// with the region.
func TestPrivateNNCandidatesGrowWithRegion(t *testing.T) {
	s := newServer(t)
	loadObjects(t, s, 5000, "gas", 8)
	sizes := []float64{0.01, 0.05, 0.1, 0.2}
	prev := 0
	for _, half := range sizes {
		region := geo.RectAround(geo.Pt(0.5, 0.5), half)
		res, err := s.PrivateNN(PrivateNNQuery{Region: region})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Candidates) < prev {
			t.Errorf("candidates shrank when region grew: %d -> %d at half=%v",
				prev, len(res.Candidates), half)
		}
		prev = len(res.Candidates)
	}
	if prev < 4 {
		t.Errorf("largest region produced only %d candidates", prev)
	}
}

func TestRangeModeString(t *testing.T) {
	if RangeRounded.String() != "rounded" || RangeMBR.String() != "mbr" {
		t.Error("mode strings")
	}
	if RangeMode(9).String() == "" {
		t.Error("unknown mode string")
	}
}

// Property: over random regions the private-NN candidate set always
// contains the brute-force NN of the region's center and corners.
func TestPropPrivateNNContainsKeyPoints(t *testing.T) {
	s := newServer(t)
	objs := loadObjects(t, s, 1500, "gas", 9)
	f := func(cxRaw, cyRaw, wRaw, hRaw uint16) bool {
		cx := 0.1 + 0.8*float64(cxRaw)/65535
		cy := 0.1 + 0.8*float64(cyRaw)/65535
		w := 0.001 + 0.15*float64(wRaw)/65535
		h := 0.001 + 0.15*float64(hRaw)/65535
		region := geo.R(cx, cy, math.Min(cx+w, 1), math.Min(cy+h, 1))
		res, err := s.PrivateNN(PrivateNNQuery{Region: region})
		if err != nil {
			return false
		}
		inCand := map[uint64]bool{}
		for _, c := range res.Candidates {
			inCand[c.ID] = true
		}
		corners := region.Corners()
		probes := append(corners[:], region.Center())
		for _, p := range probes {
			bestD := math.Inf(1)
			var bestID uint64
			for _, o := range objs {
				if d := p.Dist2(o.Loc); d < bestD {
					bestD, bestID = d, o.ID
				}
			}
			if !inCand[bestID] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// benchClasses are the classes the private-query benchmarks store, one per
// object in turn. Every query asks for "gas", as the benchmark workloads'
// private queries ask for their one class: at classes=1 the class filter
// passes every object, at classes=4 it rejects three in four.
var benchClasses = []string{"gas", "bank", "cafe", "atm"}

// loadBenchClasses is a server holding n uniform objects of the first
// classes benchClasses.
func loadBenchClasses(b *testing.B, n, classes int, seed uint64) *Server {
	s := newServer(b)
	objs := loadObjects(b, s, n, "", seed)
	for i := range objs {
		objs[i].Class = benchClasses[i%classes]
	}
	if err := s.LoadStationary(objs); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkPrivateRange times class-filtered private range queries over
// 10,000 uniform objects: "hit" repeats one query, which the memo answers;
// "miss" shifts the region by a sub-nanometre step every call, so every
// call runs the range kernel and memoizes its answer. "cands" is the mean
// answer size.
func BenchmarkPrivateRange(b *testing.B) {
	for _, path := range []string{"hit", "miss"} {
		for _, classes := range []int{1, 4} {
			s := loadBenchClasses(b, 10000, classes, 1)
			b.Run(fmt.Sprintf("%s/classes=%d", path, classes), func(b *testing.B) {
				q := PrivateRangeQuery{Region: geo.R(0.45, 0.45, 0.55, 0.55), Radius: 0.05, Class: "gas"}
				cands := 0
				for i := 0; i < b.N; i++ {
					if path == "miss" {
						d := float64(i) * 0x1p-40
						q.Region = geo.R(0.45+d, 0.45, 0.55+d, 0.55)
					}
					res, err := s.PrivateRange(q)
					if err != nil {
						b.Fatal(err)
					}
					cands += len(res)
				}
				b.ReportMetric(float64(cands)/float64(b.N), "cands")
			})
		}
	}
}

// BenchmarkPrivateNN times class-filtered private NN queries over 50,000
// uniform objects (analyst_largek's density) by stored classes and square
// region width, from cloak-sized regions whose supersets are probed by a
// plain scan to 1/4-world regions with supersets of ~15,000: "hit" repeats
// one region, which the memo answers; "miss" tours the world and shifts
// every region by a sub-nanometre step, so every call runs the NN kernel
// and memoizes its answer. "cands" is the mean answer size.
func BenchmarkPrivateNN(b *testing.B) {
	for _, path := range []string{"hit", "miss"} {
		for _, classes := range []int{1, 4} {
			s := loadBenchClasses(b, 50000, classes, 2)
			for _, w := range []int{128, 32, 16, 8, 4} {
				b.Run(fmt.Sprintf("%s/classes=%d/width=1/%d", path, classes, w), func(b *testing.B) {
					side, cands := 1/float64(w), 0
					x, y := 0.3, 0.3
					for i := 0; i < b.N; i++ {
						if path == "miss" {
							d := float64(i) * 0x1p-40
							x, y = 0.1+0.5*float64(i%97)/97+d, 0.1+0.5*float64(i%89)/89
						}
						res, err := s.PrivateNN(PrivateNNQuery{Region: geo.R(x, y, x+side, y+side), Class: "gas"})
						if err != nil {
							b.Fatal(err)
						}
						cands += len(res.Candidates)
					}
					b.ReportMetric(float64(cands)/float64(b.N), "cands")
				})
			}
		}
	}
}

// TestPrivateRangeMovingStationaryIDCollision pins the namespace rule of
// the range kernel: stationary and moving objects have independent id
// spaces, so a moving object whose id collides with a stationary one must
// come back with its own location and no class — not the stationary
// object's record.
func TestPrivateRangeMovingStationaryIDCollision(t *testing.T) {
	s := newServer(t)
	stationaryLoc := geo.Pt(0.2, 0.2)
	movingLoc := geo.Pt(0.8, 0.8)
	if err := s.LoadStationary([]PublicObject{{ID: 7, Class: "gas", Loc: stationaryLoc}}); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateMoving(7, movingLoc); err != nil {
		t.Fatal(err)
	}
	got, err := s.PrivateRange(PrivateRangeQuery{Region: geo.R(0, 0, 1, 1), Radius: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d candidates, want both colliding objects: %+v", len(got), got)
	}
	var sawStationary, sawMoving bool
	for _, o := range got {
		if o.ID != 7 {
			t.Fatalf("unexpected candidate %+v", o)
		}
		switch o.Loc {
		case stationaryLoc:
			sawStationary = true
			if o.Class != "gas" {
				t.Errorf("stationary candidate lost its class: %+v", o)
			}
		case movingLoc:
			sawMoving = true
			if o.Class != "" {
				t.Errorf("moving candidate inherited stationary metadata: %+v", o)
			}
		default:
			t.Errorf("candidate at unexpected location: %+v", o)
		}
	}
	if !sawStationary || !sawMoving {
		t.Errorf("missing candidates: stationary=%v moving=%v", sawStationary, sawMoving)
	}
}
