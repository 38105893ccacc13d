package geo

import (
	"math"
	"testing"

	"repro/internal/rng"
)

var (
	nan    = math.NaN()
	inf    = math.Inf(1)
	negZ   = math.Copysign(0, -1)
	specXs = []float64{nan, -inf, -1, negZ, 0, 1, inf}
)

// same reports whether two floats are the same value bit for bit, with
// every NaN equal to every other: signed zeros must match.
func same(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func samePt(a, b Point) bool { return same(a.X, b.X) && same(a.Y, b.Y) }

func sameRect(a, b Rect) bool { return samePt(a.Min, b.Min) && samePt(a.Max, b.Max) }

// The reference forms below are the kernels as written with math.Min and
// math.Max, through refMin and refMax. The builtins follow math.Min and
// math.Max on signed zeros, infinities and NaN, with one exception: a NaN
// operand wins over an infinity (max(NaN, +Inf) is NaN, where
// math.Max(NaN, +Inf) is +Inf). Valid rectangles are finite, so only
// invalid input can tell the two apart, and then the builtins keep the
// NaN that marks it invalid.

func refMin(a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.NaN()
	}
	return math.Min(a, b)
}

func refMax(a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.NaN()
	}
	return math.Max(a, b)
}

func refIntersect(r, s Rect) (Rect, bool) {
	out := Rect{
		Min: Point{refMax(r.Min.X, s.Min.X), refMax(r.Min.Y, s.Min.Y)},
		Max: Point{refMin(r.Max.X, s.Max.X), refMin(r.Max.Y, s.Max.Y)},
	}
	if out.Min.X > out.Max.X || out.Min.Y > out.Max.Y {
		return Rect{}, false
	}
	return out, true
}

func refOverlapArea(r, s Rect) float64 {
	w := refMin(r.Max.X, s.Max.X) - refMax(r.Min.X, s.Min.X)
	if w <= 0 {
		return 0
	}
	h := refMin(r.Max.Y, s.Max.Y) - refMax(r.Min.Y, s.Min.Y)
	if h <= 0 {
		return 0
	}
	return w * h
}

func refUnion(r, s Rect) Rect {
	return Rect{
		Min: Point{refMin(r.Min.X, s.Min.X), refMin(r.Min.Y, s.Min.Y)},
		Max: Point{refMax(r.Max.X, s.Max.X), refMax(r.Max.Y, s.Max.Y)},
	}
}

func refClampPoint(r Rect, p Point) Point {
	return Point{refMin(refMax(p.X, r.Min.X), r.Max.X), refMin(refMax(p.Y, r.Min.Y), r.Max.Y)}
}

func refMaxDist2(p Point, r Rect) float64 {
	dx := refMax(math.Abs(p.X-r.Min.X), math.Abs(p.X-r.Max.X))
	dy := refMax(math.Abs(p.Y-r.Min.Y), math.Abs(p.Y-r.Max.Y))
	return dx*dx + dy*dy
}

// TestMinMaxSpecialOperands pins the NaN, signed-zero and infinity
// behaviour of the kernels built on min and max: a table of literal
// answers, then every kernel against its refMin/refMax reference on
// rectangles drawn from the special values.
func TestMinMaxSpecialOperands(t *testing.T) {
	unit := R(0, 0, 1, 1)
	cases := []struct {
		name string
		got  func() bool
	}{
		{"Intersect with a NaN corner keeps the NaN and reports an overlap", func() bool {
			// NaN > 1 is false, so the emptiness test cannot fire on it.
			out, ok := unit.Intersect(Rect{Min: Point{nan, 0}, Max: Point{1, 1}})
			return ok && math.IsNaN(out.Min.X) && same(out.Max.X, 1)
		}},
		{"Intersect of -0 and +0 edges keeps +0 as the lower bound", func() bool {
			out, ok := Rect{Min: Point{negZ, negZ}, Max: Point{1, 1}}.Intersect(unit)
			return ok && same(out.Min.X, 0) && same(out.Min.Y, 0)
		}},
		{"Union of -0 and +0 edges keeps -0 as the lower bound", func() bool {
			out := unit.Union(Rect{Min: Point{negZ, negZ}, Max: Point{negZ, negZ}})
			return same(out.Min.X, negZ) && same(out.Max.X, 1)
		}},
		{"Union with NaN is NaN", func() bool {
			out := unit.Union(Rect{Min: Point{nan, 0}, Max: Point{1, nan}})
			return math.IsNaN(out.Min.X) && math.IsNaN(out.Max.Y) && same(out.Min.Y, 0)
		}},
		{"Union of a NaN edge with an infinite one is NaN", func() bool {
			// The one place the builtins part from math.Max, which
			// returns +Inf here.
			out := Rect{Min: Point{0, 0}, Max: Point{nan, 1}}.Union(R(0, 0, inf, 1))
			return math.IsNaN(out.Max.X) && math.Max(nan, inf) == inf
		}},
		{"Union with infinities reaches them", func() bool {
			out := unit.Union(Rect{Min: Point{-inf, 0}, Max: Point{1, inf}})
			return same(out.Min.X, -inf) && same(out.Max.Y, inf)
		}},
		{"OverlapArea of an infinite rectangle is the other's area", func() bool {
			return R(-inf, -inf, inf, inf).OverlapArea(unit) == 1
		}},
		{"OverlapArea with a NaN edge is NaN", func() bool {
			return math.IsNaN(unit.OverlapArea(Rect{Min: Point{nan, 0}, Max: Point{1, 1}}))
		}},
		{"OverlapArea of edges at +Inf is not positive", func() bool {
			return !(R(0, 0, inf, 1).OverlapArea(R(inf, 0, inf, 1)) > 0)
		}},
		{"ClampPoint of -0 into [0,1] is +0", func() bool {
			return samePt(unit.ClampPoint(Point{negZ, negZ}), Point{0, 0})
		}},
		{"ClampPoint of NaN is NaN", func() bool {
			p := unit.ClampPoint(Point{nan, 0.5})
			return math.IsNaN(p.X) && same(p.Y, 0.5)
		}},
		{"ClampPoint of ±Inf lands on the edges", func() bool {
			return samePt(unit.ClampPoint(Point{-inf, inf}), Point{0, 1})
		}},
		{"MaxDist2 to an infinite rectangle is +Inf", func() bool {
			return MaxDist2(Point{0, 0}, R(0, 0, inf, 1)) == inf
		}},
		{"MaxDist2 with a NaN corner is NaN", func() bool {
			return math.IsNaN(MaxDist2(Point{0, 0}, Rect{Min: Point{nan, 0}, Max: Point{1, 1}}))
		}},
		{"MaxDist2 from -0 to the unit square is 2", func() bool {
			return MaxDist2(Point{negZ, negZ}, unit) == 2
		}},
	}
	for _, c := range cases {
		if !c.got() {
			t.Errorf("%s: does not hold", c.name)
		}
	}

	src := rng.New(37)
	pick := func() float64 { return specXs[src.Intn(len(specXs))] }
	rect := func() Rect { return Rect{Min: Point{pick(), pick()}, Max: Point{pick(), pick()}} }
	for i := 0; i < 50000; i++ {
		r, s, p := rect(), rect(), Point{pick(), pick()}
		got, gok := r.Intersect(s)
		want, wok := refIntersect(r, s)
		if gok != wok || !sameRect(got, want) {
			t.Fatalf("%v.Intersect(%v) = %v,%v, want %v,%v", r, s, got, gok, want, wok)
		}
		if got, want := r.OverlapArea(s), refOverlapArea(r, s); !same(got, want) {
			t.Fatalf("%v.OverlapArea(%v) = %v, want %v", r, s, got, want)
		}
		if got, want := r.Union(s), refUnion(r, s); !sameRect(got, want) {
			t.Fatalf("%v.Union(%v) = %v, want %v", r, s, got, want)
		}
		if got, want := r.ClampPoint(p), refClampPoint(r, p); !samePt(got, want) {
			t.Fatalf("%v.ClampPoint(%v) = %v, want %v", r, p, got, want)
		}
		if got, want := MaxDist2(p, r), refMaxDist2(p, r); !same(got, want) {
			t.Fatalf("MaxDist2(%v, %v) = %v, want %v", p, r, got, want)
		}
	}
}

// TestOverlapsIsPositiveArea checks Overlaps ≡ OverlapArea > 0, in both
// argument orders, on random rectangles snapped to a coarse lattice (so
// shared edges and corners are common), on explicit touching and
// corner-touching pairs, and on zero-area rectangles.
func TestOverlapsIsPositiveArea(t *testing.T) {
	check := func(r, s Rect) {
		t.Helper()
		want := r.OverlapArea(s) > 0
		if got := r.Overlaps(s); got != want {
			t.Fatalf("%v.Overlaps(%v) = %v, OverlapArea = %v", r, s, got, r.OverlapArea(s))
		}
		if got := s.Overlaps(r); got != want {
			t.Fatalf("%v.Overlaps(%v) = %v, OverlapArea = %v", s, r, got, s.OverlapArea(r))
		}
	}
	unit := R(0, 0, 1, 1)
	for _, s := range []Rect{
		R(1, 0, 2, 1),       // shares the right edge
		R(0, 1, 1, 2),       // shares the top edge
		R(1, 1, 2, 2),       // shares one corner
		R(-1, -1, 0, 0),     // shares the opposite corner
		R(0.5, 1, 0.7, 3),   // touches the top edge from outside
		R(0.5, 0.5, 0.5, 1), // vertical segment inside
		R(0, 0.5, 1, 0.5),   // horizontal segment across
		PointRect(Pt(0.5, 0.5)),
		PointRect(Pt(1, 1)),
		R(0.2, 0.2, 0.4, 0.4), // strictly inside
		R(-1, -1, 2, 2),       // strictly around
		R(0.999, 0.999, 2, 2), // small positive corner overlap
	} {
		check(unit, s)
	}
	if unit.Overlaps(R(1, 0, 2, 1)) || !unit.Intersects(R(1, 0, 2, 1)) {
		t.Error("an edge-sharing pair must intersect and must not overlap")
	}
	src := rng.New(38)
	coord := func() float64 { return float64(src.Intn(9)) / 8 }
	for i := 0; i < 50000; i++ {
		r := R(coord(), coord(), coord(), coord())
		s := R(coord(), coord(), coord(), coord())
		check(r, s)
		check(r, R(src.Float64(), src.Float64(), src.Float64(), src.Float64()))
	}
}
