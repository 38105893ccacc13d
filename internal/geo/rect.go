package geo

import "fmt"

// Rect is a closed axis-aligned rectangle [MinX,MaxX]×[MinY,MaxY].
// A Rect with Min == Max is a degenerate (point) rectangle, which is valid:
// cloaked regions for k=1 profiles collapse to the exact location.
type Rect struct {
	Min, Max Point
}

// R is shorthand for a rectangle from its four coordinates. It normalizes
// swapped coordinates so that Min ≤ Max on both axes.
func R(x0, y0, x1, y1 float64) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{Min: Point{x0, y0}, Max: Point{x1, y1}}
}

// RectAround returns the square of the given half-width centered at p.
func RectAround(p Point, half float64) Rect {
	return Rect{Min: Point{p.X - half, p.Y - half}, Max: Point{p.X + half, p.Y + half}}
}

// PointRect returns the degenerate rectangle containing only p.
func PointRect(p Point) Rect { return Rect{Min: p, Max: p} }

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%.6g,%.6g]x[%.6g,%.6g]", r.Min.X, r.Max.X, r.Min.Y, r.Max.Y)
}

// Valid reports whether the rectangle is well formed (Min ≤ Max, finite).
func (r Rect) Valid() bool {
	return r.Min.Valid() && r.Max.Valid() && r.Min.X <= r.Max.X && r.Min.Y <= r.Max.Y
}

// Width returns the extent along the x axis.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the extent along the y axis.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the area of the rectangle (zero for degenerate rectangles).
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Perimeter returns the perimeter of the rectangle.
func (r Rect) Perimeter() float64 { return 2 * (r.Width() + r.Height()) }

// Center returns the center point of the rectangle.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Contains reports whether p lies inside the closed rectangle.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	return s.Min.X >= r.Min.X && s.Max.X <= r.Max.X &&
		s.Min.Y >= r.Min.Y && s.Max.Y <= r.Max.Y
}

// Intersects reports whether r and s share at least one point
// (closed-rectangle semantics: touching edges intersect).
func (r Rect) Intersects(s Rect) bool {
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// Overlaps reports whether r and s share a region of positive area: their
// intersection has positive width and positive height. Rectangles that
// only touch along an edge or at a corner do not overlap, and a
// degenerate rectangle overlaps nothing. It is OverlapArea(s) > 0 without
// the product, which can underflow to zero. Use it where a
// question is about area (does a cell lie partly inside a region, which
// shards must hold a region) and Intersects where a point on a shared
// edge must still be found.
func (r Rect) Overlaps(s Rect) bool {
	return min(r.Max.X, s.Max.X) > max(r.Min.X, s.Min.X) &&
		min(r.Max.Y, s.Max.Y) > max(r.Min.Y, s.Min.Y)
}

// Intersect returns the overlap of r and s and whether it is non-empty.
func (r Rect) Intersect(s Rect) (Rect, bool) {
	out := Rect{
		Min: Point{max(r.Min.X, s.Min.X), max(r.Min.Y, s.Min.Y)},
		Max: Point{min(r.Max.X, s.Max.X), min(r.Max.Y, s.Max.Y)},
	}
	if out.Min.X > out.Max.X || out.Min.Y > out.Max.Y {
		return Rect{}, false
	}
	return out, true
}

// OverlapArea returns the area of the intersection of r and s
// (zero when they do not overlap or overlap only on an edge).
func (r Rect) OverlapArea(s Rect) float64 {
	w := min(r.Max.X, s.Max.X) - max(r.Min.X, s.Min.X)
	if w <= 0 {
		return 0
	}
	h := min(r.Max.Y, s.Max.Y) - max(r.Min.Y, s.Min.Y)
	if h <= 0 {
		return 0
	}
	return w * h
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		Min: Point{min(r.Min.X, s.Min.X), min(r.Min.Y, s.Min.Y)},
		Max: Point{max(r.Max.X, s.Max.X), max(r.Max.Y, s.Max.Y)},
	}
}

// UnionPoint returns the smallest rectangle containing r and p.
func (r Rect) UnionPoint(p Point) Rect {
	return Rect{
		Min: Point{min(r.Min.X, p.X), min(r.Min.Y, p.Y)},
		Max: Point{max(r.Max.X, p.X), max(r.Max.Y, p.Y)},
	}
}

// Expand returns r grown by d on every side (the Minkowski sum of r with a
// square of half-width d). A negative d shrinks the rectangle; the result
// is normalized to be at least degenerate.
//
// Expansion by the query range is the server-side filter for private range
// queries (Figure 5a of the paper): every public object within distance d
// of any point of the cloaked region lies inside the circle-expanded
// region, which Expand over-approximates by its MBR exactly as the paper
// prescribes ("the rounded rectangle will be approximated by its minimum
// bounding rectangle").
func (r Rect) Expand(d float64) Rect {
	out := Rect{
		Min: Point{r.Min.X - d, r.Min.Y - d},
		Max: Point{r.Max.X + d, r.Max.Y + d},
	}
	if out.Min.X > out.Max.X {
		c := (out.Min.X + out.Max.X) / 2
		out.Min.X, out.Max.X = c, c
	}
	if out.Min.Y > out.Max.Y {
		c := (out.Min.Y + out.Max.Y) / 2
		out.Min.Y, out.Max.Y = c, c
	}
	return out
}

// ClampPoint returns the point of r closest to p.
func (r Rect) ClampPoint(p Point) Point {
	x := min(max(p.X, r.Min.X), r.Max.X)
	y := min(max(p.Y, r.Min.Y), r.Max.Y)
	return Point{x, y}
}

// Clip returns r clipped to the bounds of s (their intersection), or a
// degenerate rectangle at the clamped center of r if they do not overlap.
func (r Rect) Clip(s Rect) Rect {
	if out, ok := r.Intersect(s); ok {
		return out
	}
	return PointRect(s.ClampPoint(r.Center()))
}

// Corners returns the four corner points of r in counterclockwise order
// starting from Min.
func (r Rect) Corners() [4]Point {
	return [4]Point{
		{r.Min.X, r.Min.Y},
		{r.Max.X, r.Min.Y},
		{r.Max.X, r.Max.Y},
		{r.Min.X, r.Max.Y},
	}
}

// Eq reports whether r and s are exactly equal.
func (r Rect) Eq(s Rect) bool { return r.Min.Eq(s.Min) && r.Max.Eq(s.Max) }

// IsPoint reports whether the rectangle is degenerate (zero width and height).
func (r Rect) IsPoint() bool { return r.Min.Eq(r.Max) }

// Diagonal returns the length of the rectangle's diagonal — the largest
// distance between any two of its points.
func (r Rect) Diagonal() float64 { return r.Min.Dist(r.Max) }
