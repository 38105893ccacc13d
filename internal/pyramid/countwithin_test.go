package pyramid

import (
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/rng"
)

// closedCountWithin is the descent CountWithin replaced, kept as the
// reference: it prunes with closed intersection, so every cell that only
// touches the region is walked down to the bottom level.
func closedCountWithin(p *Pyramid, c Cell, region geo.Rect) int {
	r := p.Rect(c)
	if !region.Intersects(r) {
		return 0
	}
	if region.ContainsRect(r) {
		return p.Count(c)
	}
	if c.Level == p.Height()-1 {
		return 0
	}
	if p.Count(c) == 0 {
		return 0
	}
	sum := 0
	for dy := 0; dy < 2; dy++ {
		for dx := 0; dx < 2; dx++ {
			sum += closedCountWithin(p, c.Child(dx, dy), region)
		}
	}
	return sum
}

// bruteCountWithin sums the bottom cells lying entirely inside region.
func bruteCountWithin(p *Pyramid, region geo.Rect) int {
	bottom := p.Height() - 1
	n := 0
	for row := 0; row < side(bottom); row++ {
		for col := 0; col < side(bottom); col++ {
			c := Cell{Level: bottom, Col: col, Row: row}
			if region.ContainsRect(p.Rect(c)) {
				n += p.Count(c)
			}
		}
	}
	return n
}

// populated returns a pyramid of the given height holding n users, half
// spread uniformly and half packed into one corner cell of level 2, so
// the counts have both empty and crowded subtrees.
func populated(t testing.TB, height, n int, seed uint64) *Pyramid {
	p := mustNew(t, height)
	src := rng.New(seed)
	for i := 0; i < n; i++ {
		pt := geo.Pt(src.Float64(), src.Float64())
		if i%2 == 1 {
			pt = geo.Pt(0.25*src.Float64(), 0.25*src.Float64())
		}
		if err := p.Insert(uint64(i+1), pt); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// countWithinProbes returns rectangles of every kind CountWithin must
// count like the reference: random, snapped to cell edges of each level
// (touching neighbours along edges and corners), single cells, zero-area,
// inverted, past the world edge and non-finite.
func countWithinProbes(p *Pyramid, src *rng.Source) []geo.Rect {
	var out []geo.Rect
	for i := 0; i < 300; i++ {
		out = append(out, geo.R(src.Float64(), src.Float64(), src.Float64(), src.Float64()))
		level := src.Intn(p.Height())
		s := float64(side(level))
		snap := func() float64 { return float64(src.Intn(side(level)+1)) / s }
		out = append(out, geo.R(snap(), snap(), snap(), snap()))
		c := p.CellAt(level, geo.Pt(src.Float64(), src.Float64()))
		out = append(out, p.Rect(c))
		x := snap()
		out = append(out, geo.R(x, src.Float64(), x, src.Float64())) // a cell-edge segment
	}
	inf := math.Inf(1)
	out = append(out,
		p.World(),
		geo.R(-1, -1, 2, 2),
		geo.R(-inf, -inf, inf, inf),
		geo.R(1, 0, 2, 1), // touches the world's right edge only
		geo.PointRect(geo.Pt(0.5, 0.5)),
		geo.Rect{Min: geo.Pt(0.75, 0.75), Max: geo.Pt(0.25, 0.25)}, // inverted
		geo.Rect{Min: geo.Pt(math.NaN(), 0), Max: geo.Pt(1, 1)},
	)
	return out
}

// TestCountWithinEqualsClosedDescent pins that pruning by area changes no
// count: CountWithin equals both the closed-intersection descent it
// replaced and the brute-force sum over bottom cells, on every probe.
func TestCountWithinEqualsClosedDescent(t *testing.T) {
	for _, height := range []int{1, 3, 6} {
		p := populated(t, height, 2000, uint64(height))
		src := rng.New(uint64(100 + height))
		for _, r := range countWithinProbes(p, src) {
			got := p.CountWithin(r)
			if want := closedCountWithin(p, Cell{}, r); got != want {
				t.Fatalf("height %d: CountWithin(%v) = %d, closed descent %d", height, r, got, want)
			}
			if want := bruteCountWithin(p, r); got != want {
				t.Fatalf("height %d: CountWithin(%v) = %d, brute force %d", height, r, got, want)
			}
		}
	}
}

// TestCountWithinCellRegionVisits bounds the walk for the regions the
// quadtree cloaker issues: a single cell at any level is counted exactly
// and costs at most 4·height+1 visited cells, independent of how many of
// its neighbours share its edges.
func TestCountWithinCellRegionVisits(t *testing.T) {
	const height = 9
	p := populated(t, height, 5000, 7)
	bound := 4*height + 1
	for level := 0; level < height; level++ {
		step := max(1, side(level)/16)
		for row := 0; row < side(level); row += step {
			for col := 0; col < side(level); col += step {
				c := Cell{Level: level, Col: col, Row: row}
				n, visited := p.countWithin(Cell{}, p.Rect(c))
				if n != p.Count(c) {
					t.Fatalf("%v: counted %d, cell holds %d", c, n, p.Count(c))
				}
				if visited > bound {
					t.Fatalf("%v: visited %d cells, bound %d", c, visited, bound)
				}
			}
		}
	}
}

// FuzzCountWithin checks CountWithin against the brute-force sum over
// bottom cells for arbitrary rectangles (inverted and non-finite ones
// included) at every pyramid height up to 7.
func FuzzCountWithin(f *testing.F) {
	f.Add(0.25, 0.25, 0.5, 0.5, uint8(5))
	f.Add(0.0, 0.0, 1.0, 1.0, uint8(3))
	f.Add(0.125, 0.3, 0.125, 0.9, uint8(6))
	f.Add(0.9, 0.9, 0.1, 0.1, uint8(4))
	f.Add(-1.0, 0.5, 2.0, 0.75, uint8(7))
	f.Add(1.0, 0.0, 2.0, 1.0, uint8(2))
	pyrs := make([]*Pyramid, 8)
	for h := 1; h < len(pyrs); h++ {
		pyrs[h] = populated(f, h, 1000, uint64(h))
	}
	f.Fuzz(func(t *testing.T, x0, y0, x1, y1 float64, h uint8) {
		p := pyrs[1+int(h)%(len(pyrs)-1)]
		r := geo.Rect{Min: geo.Pt(x0, y0), Max: geo.Pt(x1, y1)}
		if got, want := p.CountWithin(r), bruteCountWithin(p, r); got != want {
			t.Fatalf("height %d: CountWithin(%v) = %d, brute force %d", p.Height(), r, got, want)
		}
	})
}
