package mobility

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geo"
)

// Stream is a city-scale mobility generator with O(clusters) resident
// state: a user's position at any tick is a pure function of (seed, id,
// tick), so a million-user population costs no per-user memory and any
// worker can compute any user's position independently — the property the
// soak harness needs to stream 1M+ users through the pipeline without
// holding them.
//
// The model is a hash-derived random-waypoint walk over a Zipf-clustered
// city: user id's k-th waypoint is drawn around a cluster picked by a
// Zipf CDF lookup keyed on hash(seed, id, k), each leg lasts a per-user
// constant number of ticks, and the position inside a leg interpolates
// between consecutive waypoints. Consecutive ticks therefore move a user
// continuously; waypoint changes are corners, not jumps.
type Stream struct {
	spec    StreamSpec
	centers []geo.Point
	cdf     []float64 // cumulative cluster popularity, cdf[len-1] == 1
}

// StreamSpec configures a Stream. The zero value is unusable: World must
// be a valid, non-empty rectangle.
type StreamSpec struct {
	World geo.Rect
	Seed  uint64

	// NumClusters and ZipfS shape the city: waypoint density follows a
	// Zipf(s) law over the cluster centers. Defaults: 10 clusters, s=1.
	NumClusters int
	ZipfS       float64
	// Stddev is the Gaussian spread of waypoints around their cluster
	// center; default 5% of world width.
	Stddev float64

	// MinLeg and MaxLeg bound the per-user leg duration in ticks; each
	// user's constant leg length is hashed into this interval. Defaults
	// 20 and 60.
	MinLeg, MaxLeg int
}

// Hotspot is a transient attractor — the flash-crowd dial. A fraction
// Frac of the population (chosen per user by hash, stable for the
// hotspot's lifetime) has its waypoints pulled toward Center by Pull
// (0 = no effect, 1 = everyone affected sits on Center). Scenarios pass a
// different Hotspot per phase to migrate the crowd.
type Hotspot struct {
	Center geo.Point
	Frac   float64
	Pull   float64
}

func (s StreamSpec) withDefaults() StreamSpec {
	if s.NumClusters <= 0 {
		s.NumClusters = 10
	}
	if s.ZipfS <= 0 {
		s.ZipfS = 1.0
	}
	if s.Stddev <= 0 {
		s.Stddev = 0.05 * s.World.Width()
	}
	if s.MinLeg <= 0 {
		s.MinLeg = 20
	}
	if s.MaxLeg < s.MinLeg {
		s.MaxLeg = s.MinLeg + 40
	}
	return s
}

// NewStream validates the spec and precomputes the cluster layout — the
// only allocation the generator ever makes.
func NewStream(spec StreamSpec) (*Stream, error) {
	if !spec.World.Valid() || spec.World.Area() <= 0 {
		return nil, fmt.Errorf("mobility: invalid stream world %v", spec.World)
	}
	spec = spec.withDefaults()
	g := &Stream{
		spec:    spec,
		centers: make([]geo.Point, spec.NumClusters),
		cdf:     make([]float64, spec.NumClusters),
	}
	// Cluster centers are themselves hash-placed so the whole layout is a
	// function of the seed alone.
	for i := range g.centers {
		hx := g.h(uint64(i), 0, saltCenterX)
		hy := g.h(uint64(i), 0, saltCenterY)
		g.centers[i] = geo.Pt(
			spec.World.Min.X+unit(hx)*spec.World.Width(),
			spec.World.Min.Y+unit(hy)*spec.World.Height(),
		)
	}
	var total float64
	for i := range g.cdf {
		total += 1 / math.Pow(float64(i+1), spec.ZipfS)
		g.cdf[i] = total
	}
	for i := range g.cdf {
		g.cdf[i] /= total
	}
	return g, nil
}

// Hash salts separating the independent random streams drawn from one
// seed.
const (
	saltCenterX = 0x10
	saltCenterY = 0x11
	saltCluster = 0x20
	saltOffU    = 0x21
	saltOffV    = 0x22
	saltLeg     = 0x23
	saltHot     = 0x24
)

// mix is the splitmix64 finalizer — the avalanche that turns structured
// (seed, id, k) triples into independent uniform words.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// h derives one uniform word for (id, k) under a salt.
func (g *Stream) h(id, k, salt uint64) uint64 {
	return mix(mix(mix(g.spec.Seed^salt*0x9e3779b97f4a7c15)^id) ^ k)
}

// unit maps a uniform word onto [0,1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// legTicks returns user id's constant leg duration.
func (g *Stream) legTicks(id uint64) uint64 {
	span := uint64(g.spec.MaxLeg - g.spec.MinLeg + 1)
	return uint64(g.spec.MinLeg) + g.h(id, 0, saltLeg)%span
}

// waypoint returns user id's k-th waypoint: a Gaussian sample around a
// Zipf-chosen cluster center, optionally pulled toward a hotspot, clamped
// into the world.
func (g *Stream) waypoint(id, k uint64, hot *Hotspot) geo.Point {
	u := unit(g.h(id, k, saltCluster))
	c := g.centers[sort.SearchFloat64s(g.cdf, u)]
	// Box–Muller from two salted uniforms; the 1e-12 floor keeps Log finite.
	u1 := unit(g.h(id, k, saltOffU))
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	u2 := unit(g.h(id, k, saltOffV))
	r := math.Sqrt(-2*math.Log(u1)) * g.spec.Stddev
	p := geo.Pt(c.X+r*math.Cos(2*math.Pi*u2), c.Y+r*math.Sin(2*math.Pi*u2))
	if hot != nil && hot.Pull > 0 && unit(g.h(id, 0, saltHot)) < hot.Frac {
		p = p.Lerp(hot.Center, hot.Pull)
	}
	return g.spec.World.ClampPoint(p)
}

// Pos returns user id's exact position at tick — a pure O(1) function of
// (seed, id, tick, hot). hot may be nil. Successive ticks interpolate
// along the current leg, so per-user motion is continuous.
func (g *Stream) Pos(id uint64, tick uint64, hot *Hotspot) geo.Point {
	legLen := g.legTicks(id)
	// Phase-shift by a per-user offset so a fresh population doesn't turn
	// all its corners on the same global ticks.
	t := tick + (g.h(id, 0, saltLeg)>>32)%legLen
	k := t / legLen
	frac := float64(t%legLen) / float64(legLen)
	from := g.waypoint(id, k, hot)
	to := g.waypoint(id, k+1, hot)
	return from.Lerp(to, frac)
}

// World returns the generation bounds.
func (g *Stream) World() geo.Rect { return g.spec.World }
