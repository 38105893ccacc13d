package cloak

import (
	"testing"
	"testing/quick"

	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/privacy"
)

// Skewed (Zipf) populations are the adversarial case for space-dependent
// cloaking: hotspot cells are dense, tail cells nearly empty, forcing long
// merge chains. The invariants must hold regardless.
func TestPropGridCloakUnderZipfSkew(t *testing.T) {
	f := func(seed uint64, kRaw uint8, levelRaw uint8, userRaw uint16) bool {
		k := int(kRaw%80) + 2
		level := int(levelRaw%4) + 3 // levels 3..6
		_, pyr, pts := population(t, 1200, mobility.ZipfClusters, seed)
		uid := uint64(int(userRaw)%len(pts)) + 1
		loc := pts[uid-1]
		g := &Grid{Pyr: pyr, Level: level}
		res := g.Cloak(uid, loc, privacy.Requirement{K: k})
		if !res.Region.Contains(loc) {
			return false
		}
		if got := bruteCount(pts, res.Region); got != res.K {
			return false
		}
		// k ≤ population, so it must be satisfiable and satisfied.
		return res.SatisfiedK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// MBR cloaking under skew: the region is exactly the bounding box of the
// k-nearest set, so its reported K can exceed k (other users fall inside)
// but never goes below.
func TestPropMBRCloakCountLowerBound(t *testing.T) {
	f := func(seed uint64, kRaw uint8, userRaw uint16) bool {
		k := int(kRaw%60) + 1
		pop, _, pts := population(t, 900, mobility.ZipfClusters, seed)
		uid := uint64(int(userRaw)%len(pts)) + 1
		m := &MBR{Pop: pop}
		res := m.Cloak(uid, pts[uid-1], privacy.Requirement{K: k})
		return res.K >= k && res.SatisfiedK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Incremental cloaking never returns a region violating the active
// requirement when the validator is sound, across random micro-movements.
func TestPropIncrementalAlwaysValid(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		k := int(kRaw%40) + 2
		_, pyr, pts := population(t, 1000, mobility.Gaussian, seed)
		validate := func(region geo.Rect, req privacy.Requirement) (int, bool) {
			n := bruteCount(pts, region)
			return n, n >= req.K
		}
		inc := NewIncremental(&Quadtree{Pyr: pyr}, validate)
		req := privacy.Requirement{K: k}
		uid := uint64(7)
		loc := pts[uid-1]
		for step := 0; step < 15; step++ {
			res := inc.Cloak(uid, loc, req)
			if !res.Region.Contains(loc) {
				return false
			}
			if bruteCount(pts, res.Region) < k {
				return false
			}
			// Drift.
			loc = geo.R(0, 0, 1, 1).ClampPoint(geo.Pt(loc.X+0.003, loc.Y-0.002))
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// The shared batch path rests on this: a space-dependent cloak reads only
// the counts of the cells containing the location, so any two points of
// one bottom pyramid cell, sent by different users, get identical Results.
func TestPropSpaceDependentCloakIsAFunctionOfTheBottomCell(t *testing.T) {
	f := func(seed uint64, kRaw uint8, areaRaw uint8, userRaw uint16, fx, fy [2]uint16) bool {
		_, pyr, pts := population(t, 1000, mobility.Gaussian, seed)
		req := privacy.Requirement{K: int(kRaw%80) + 1}
		if areaRaw%2 == 0 {
			req.MinArea = float64(areaRaw) / 255 * 0.01
		}
		cell := pyr.CellAt(pyr.Height()-1, pts[int(userRaw)%len(pts)])
		r := pyr.Rect(cell)
		var locs [2]geo.Point
		for i := range locs {
			locs[i] = geo.Pt(r.Min.X+r.Width()*float64(fx[i])/65536, r.Min.Y+r.Height()*float64(fy[i])/65536)
			if pyr.CellAt(cell.Level, locs[i]) != cell {
				t.Fatalf("%v is not in %v", locs[i], cell)
			}
		}
		for _, c := range []Cloaker{
			&Quadtree{Pyr: pyr},
			&Grid{Pyr: pyr, Level: 4},
			&Grid{Pyr: pyr, Level: 4, MultiLevel: true},
		} {
			if a, b := c.Cloak(1, locs[0], req), c.Cloak(2, locs[1], req); a != b {
				t.Logf("%s, %v: %v and %v in %v get %v and %v", c.Name(), req, locs[0], locs[1], cell, a, b)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
