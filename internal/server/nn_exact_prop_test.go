package server

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/geo"
	"repro/internal/rng"
)

// The exact private-NN decision walks the region's boundary through the
// Voronoi cells of the candidates, so its hard inputs are the degenerate
// ones: ties of every kind, objects on the boundary, regions without
// area. Every case below is checked for sampled soundness and minimality
// against the reference model, for order invariance (the answer is the
// same whatever order the objects are loaded or combined in), and for
// partition invariance (CombineNNParts over random shards equals the
// single answer).

// exactCase generates one data set and region inside the unit world.
type exactCase func(src *rng.Source) ([]PublicObject, geo.Rect)

// lattice rounds v down to a multiple of 1/n.
func lattice(v float64, n int) float64 { return math.Floor(v*float64(n)) / float64(n) }

// randomRegion is a region of the unit world whose corners sit on the
// 1/16 lattice half the time.
func randomRegion(src *rng.Source, maxSide float64) geo.Rect {
	x, y := src.Float64(), src.Float64()
	w, h := maxSide*src.Float64(), maxSide*src.Float64()
	r := geo.R(x, y, math.Min(x+w, 1), math.Min(y+h, 1))
	if src.Intn(2) == 0 {
		r = geo.R(lattice(r.Min.X, 16), lattice(r.Min.Y, 16), lattice(r.Max.X, 16), lattice(r.Max.Y, 16))
	}
	return r
}

// withIDs numbers the locations with distinct IDs in a random order, so
// ID tie-breaks do not follow location order.
func withIDs(src *rng.Source, locs []geo.Point) []PublicObject {
	perm := make([]int, len(locs))
	src.Perm(perm)
	objs := make([]PublicObject, len(locs))
	for i, j := range perm {
		objs[i] = PublicObject{ID: uint64(j + 1), Class: "gas", Loc: locs[i]}
	}
	return objs
}

func uniformLocs(src *rng.Source, n int) []geo.Point {
	locs := make([]geo.Point, n)
	for i := range locs {
		locs[i] = geo.Pt(src.Float64(), src.Float64())
	}
	return locs
}

var exactCases = []struct {
	name string
	gen  exactCase
}{
	{"colocated", func(src *rng.Source) ([]PublicObject, geo.Rect) {
		var locs []geo.Point
		for _, p := range uniformLocs(src, 3+src.Intn(20)) {
			for k := 0; k <= src.Intn(3); k++ {
				locs = append(locs, p)
			}
		}
		return withIDs(src, locs), randomRegion(src, 0.4)
	}},
	{"lattice", func(src *rng.Source) ([]PublicObject, geo.Rect) {
		var locs []geo.Point
		for i := 0; i <= 8; i++ {
			for j := 0; j <= 8; j++ {
				if src.Intn(3) == 0 {
					locs = append(locs, geo.Pt(float64(i)/8, float64(j)/8))
				}
			}
		}
		return withIDs(src, locs), randomRegion(src, 0.5)
	}},
	{"collinear", func(src *rng.Source) ([]PublicObject, geo.Rect) {
		locs := make([]geo.Point, 4+src.Intn(30))
		c := lattice(src.Float64(), 8)
		for i := range locs {
			v := src.Float64()
			if src.Intn(2) == 0 {
				v = lattice(v, 16)
			}
			switch src.Intn(3) {
			case 0:
				locs[i] = geo.Pt(v, c)
			case 1:
				locs[i] = geo.Pt(c, v)
			default:
				locs[i] = geo.Pt(v, v)
			}
		}
		return withIDs(src, locs), randomRegion(src, 0.4)
	}},
	{"on-boundary", func(src *rng.Source) ([]PublicObject, geo.Rect) {
		region := randomRegion(src, 0.3)
		locs := uniformLocs(src, 5+src.Intn(20))
		corners := region.Corners()
		for k := 0; k < 2+src.Intn(8); k++ {
			a, b := corners[src.Intn(4)], corners[src.Intn(4)]
			locs = append(locs, a.Lerp(b, float64(src.Intn(5))/4))
		}
		return withIDs(src, locs), region
	}},
	{"point-or-segment", func(src *rng.Source) ([]PublicObject, geo.Rect) {
		locs := uniformLocs(src, 5+src.Intn(40))
		var p geo.Point
		if src.Intn(2) == 0 {
			p = locs[src.Intn(len(locs))]
		} else {
			p = geo.Pt(lattice(src.Float64(), 16), lattice(src.Float64(), 16))
		}
		region := geo.PointRect(p)
		switch src.Intn(3) {
		case 1:
			region.Max.X = math.Min(1, p.X+0.3*src.Float64())
		case 2:
			region.Max.Y = math.Min(1, p.Y+0.3*src.Float64())
		}
		return withIDs(src, locs), region
	}},
	{"world-border", func(src *rng.Source) ([]PublicObject, geo.Rect) {
		locs := uniformLocs(src, 10+src.Intn(40))
		for k := 0; k < 4; k++ {
			locs = append(locs, geo.Pt(lattice(src.Float64(), 8), float64(src.Intn(2))))
		}
		region := randomRegion(src, 0.3)
		w, h := region.Width(), region.Height()
		if src.Intn(2) == 0 {
			region.Min.X, region.Max.X = 0, w
		} else {
			region.Min.Y, region.Max.Y = 1-h, 1
		}
		return withIDs(src, locs), region
	}},
	{"large-set", func(src *rng.Source) ([]PublicObject, geo.Rect) {
		var locs []geo.Point
		if src.Intn(2) == 0 {
			for i := 0; i <= 20; i++ {
				for j := 0; j <= 20; j++ {
					locs = append(locs, geo.Pt(float64(i)/20, float64(j)/20))
				}
			}
		} else {
			locs = uniformLocs(src, 400)
		}
		return withIDs(src, locs), randomRegion(src, 0.7)
	}},
}

func TestPrivateNNExactDegenerate(t *testing.T) {
	sizes := [2]int{} // supersets at most nnScanMax, and above it
	for _, tc := range exactCases {
		t.Run(tc.name, func(t *testing.T) {
			src := rng.New(uint64(len(tc.name)) * 0x9E3779B97F4A7C15)
			for trial := 0; trial < 60; trial++ {
				objs, region := tc.gen(src)
				res := checkExactCase(t, src, objs, region)
				if res.SupersetSize > nnScanMax {
					sizes[1]++
				} else {
					sizes[0]++
				}
			}
		})
	}
	if sizes[0] == 0 || sizes[1] == 0 {
		t.Errorf("supersets ≤ / > %d candidates: %d / %d cases; both sides of the switch must run", nnScanMax, sizes[0], sizes[1])
	}
}

// shuffle returns a copy of objs in a random order.
func shuffle(src *rng.Source, objs []PublicObject) []PublicObject {
	perm := make([]int, len(objs))
	src.Perm(perm)
	out := make([]PublicObject, len(objs))
	for i, j := range perm {
		out[i] = objs[j]
	}
	return out
}

// loadedServer is a fresh server holding objs.
func loadedServer(t testing.TB, objs []PublicObject) *Server {
	t.Helper()
	s := newServer(t)
	if err := s.LoadStationary(objs); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkExactCase runs one case through PrivateNN and asserts soundness,
// minimality, order invariance and partition invariance.
func checkExactCase(t *testing.T, src *rng.Source, objs []PublicObject, region geo.Rect) PrivateNNResult {
	t.Helper()
	q := PrivateNNQuery{Region: region}
	s := loadedServer(t, objs)
	res, err := s.PrivateNN(q)
	if err != nil {
		t.Fatal(err)
	}
	checkNNSound(t, region, res.Candidates, objs, 9)
	checkNNMinimal(t, region, res.Candidates, objs)

	shuffled := shuffle(src, objs)
	if got, _ := loadedServer(t, shuffled).PrivateNN(q); !reflect.DeepEqual(got, res) {
		t.Fatalf("region %v: the answer depends on load order\n got %v\nwant %v", region, got.Candidates, res.Candidates)
	}
	parts, err := s.PrivateNNParts(q)
	if err != nil {
		t.Fatal(err)
	}
	parts.Candidates = shuffle(src, parts.Candidates)
	if got := CombineNNParts(region, parts); !reflect.DeepEqual(got, res) {
		t.Fatalf("region %v: combining the shuffled part diverges\n got %v\nwant %v", region, got.Candidates, res.Candidates)
	}

	shards := make([][]PublicObject, 1+src.Intn(4))
	for _, o := range shuffled {
		k := src.Intn(len(shards))
		shards[k] = append(shards[k], o)
	}
	var all []NNParts
	for _, shard := range shards {
		p, err := loadedServer(t, shard).PrivateNNParts(q)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, p)
	}
	if got := CombineNNParts(region, all...); !reflect.DeepEqual(got, res) {
		t.Fatalf("region %v: combining %d shards diverges\n got %v\nwant %v", region, len(shards), got.Candidates, res.Candidates)
	}
	return res
}

// FuzzPrivateNNExact decodes objects and a region on the 1/16 lattice of
// the unit world — ties, co-located objects and zero-area regions are
// common there — and checks the decision for sampled soundness and for
// order invariance.
func FuzzPrivateNNExact(f *testing.F) {
	f.Add([]byte{2, 2, 9, 7, 1, 1, 5, 5, 5, 5, 12, 3, 8, 8, 0, 16})
	f.Add([]byte{4, 4, 4, 4, 3, 4, 5, 4, 4, 3, 4, 5})
	f.Add([]byte{0, 0, 16, 16, 8, 8, 8, 8, 8, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		c := func(b byte) float64 { return float64(b%17) / 16 }
		region := geo.R(c(data[0]), c(data[1]), c(data[2]), c(data[3]))
		var objs []PublicObject
		for i := 4; i+1 < len(data) && len(objs) < 200; i += 2 {
			// An odd multiplier is a bijection mod 2³², so IDs are distinct
			// and their order is unrelated to the input's.
			id := uint64(uint32(len(objs)+1) * 2654435761)
			objs = append(objs, PublicObject{ID: id, Loc: geo.Pt(c(data[i]), c(data[i+1]))})
		}
		res := CombineNNParts(region, NNParts{Bound: math.Inf(1), Candidates: objs})
		checkNNSound(t, region, res.Candidates, objs, 5)
		reversed := make([]PublicObject, len(objs))
		for i, o := range objs {
			reversed[len(objs)-1-i] = o
		}
		if got := CombineNNParts(region, NNParts{Bound: math.Inf(1), Candidates: reversed}); !reflect.DeepEqual(got, res) {
			t.Fatalf("region %v: the answer depends on input order\n got %v\nwant %v", region, got.Candidates, res.Candidates)
		}
	})
}
