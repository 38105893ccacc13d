package geo

import "math"

// MinDist returns the minimum Euclidean distance between p and any point of
// r. It is zero when p lies inside r. MinDist is the classic R-tree search
// lower bound and the basis of the private nearest-neighbor filter.
func MinDist(p Point, r Rect) float64 {
	return math.Sqrt(MinDist2(p, r))
}

// MinDist2 returns the squared minimum distance between p and r.
func MinDist2(p Point, r Rect) float64 {
	var dx, dy float64
	switch {
	case p.X < r.Min.X:
		dx = r.Min.X - p.X
	case p.X > r.Max.X:
		dx = p.X - r.Max.X
	}
	switch {
	case p.Y < r.Min.Y:
		dy = r.Min.Y - p.Y
	case p.Y > r.Max.Y:
		dy = p.Y - r.Max.Y
	}
	return dx*dx + dy*dy
}

// MaxDist returns the maximum Euclidean distance between p and any point of
// r — the distance from p to the farthest corner of r.
func MaxDist(p Point, r Rect) float64 {
	return math.Sqrt(MaxDist2(p, r))
}

// MaxDist2 returns the squared maximum distance between p and r.
func MaxDist2(p Point, r Rect) float64 {
	dx := max(math.Abs(p.X-r.Min.X), math.Abs(p.X-r.Max.X))
	dy := max(math.Abs(p.Y-r.Min.Y), math.Abs(p.Y-r.Max.Y))
	return dx*dx + dy*dy
}

// MinDistRects returns the minimum distance between any point of r and any
// point of s. It is zero when the rectangles intersect.
func MinDistRects(r, s Rect) float64 {
	return math.Sqrt(MinDistRects2(r, s))
}

// MinDistRects2 returns the squared minimum distance between r and s.
func MinDistRects2(r, s Rect) float64 {
	var dx, dy float64
	switch {
	case s.Max.X < r.Min.X:
		dx = r.Min.X - s.Max.X
	case r.Max.X < s.Min.X:
		dx = s.Min.X - r.Max.X
	}
	switch {
	case s.Max.Y < r.Min.Y:
		dy = r.Min.Y - s.Max.Y
	case r.Max.Y < s.Min.Y:
		dy = s.Min.Y - r.Max.Y
	}
	return dx*dx + dy*dy
}

// MaxDistRects returns the maximum distance between any point of r and any
// point of s — achieved at a pair of opposing corners.
func MaxDistRects(r, s Rect) float64 {
	return math.Sqrt(MaxDistRects2(r, s))
}

// MaxDistRects2 returns the squared maximum distance between r and s.
func MaxDistRects2(r, s Rect) float64 {
	dx := max(r.Max.X-s.Min.X, s.Max.X-r.Min.X)
	dy := max(r.Max.Y-s.Min.Y, s.Max.Y-r.Min.Y)
	return dx*dx + dy*dy
}

// MinMaxDist returns the paper-relevant pruning bound for nearest-neighbor
// search over a cloaked region q against a candidate region c: the smallest,
// over all points x of q, of the largest distance from x to c. Any region d
// with MinDistRects(q, d) > MinMaxDist(q, c) can never contain the nearest
// private object for any location of the query inside q, because c is
// guaranteed closer. For the common case where q is a point (public NN query
// issued from an exact location, Figure 6b) this reduces to MaxDist(q, c).
//
// The bound is exact: MaxDist2(x, c) is separable into per-axis terms
// max(|x−cMin|, |x−cMax|)², each a V-shaped function of one coordinate
// minimized at the midpoint of c's extent on that axis, so the minimum
// over the rectangle q is attained at the clamp of c's center into q.
func MinMaxDist(q, c Rect) float64 {
	return MaxDist(q.ClampPoint(c.Center()), c)
}
