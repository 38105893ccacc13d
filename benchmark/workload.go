package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/rng"
	"repro/internal/server"
)

// world is the unit square every workload lives in.
var world = geo.R(0, 0, 1, 1)

const (
	// clients is the number of closed-loop client goroutines. Callers of
	// protocol.Client wait for a reply, so the loop is closed; the box this
	// benchmark is calibrated on has two cores.
	clients = 2
	// frameEntries is the batch-frame size of city_batch.
	frameEntries = 64
	// citySeed fixes the city's geography (cluster centres and their Zipf
	// popularity). The run seed draws the residents and the traffic, not the
	// map: ten cluster centres are too few draws for two seeds to give
	// statistically similar cities, and the metrics are compared across seeds.
	citySeed = 2006
	// objectClass is the single public-object class the queries ask for.
	objectClass = "poi"
)

// opKind indexes the three kinds of operation a user of the system sees.
type opKind uint8

const (
	opUpdate opKind = iota
	opPrivate
	opCount
	numKinds
)

var kindNames = [numKinds]string{"update", "private_query", "public_count"}

// spec is one workload: population sizes, privacy level, topology and mix.
type spec struct {
	name    string
	users   int
	objects int
	k       int
	shards  int // 0 = single lbsd, otherwise a router over this many shards
	frame   int // entries per frame: 1 = one message per op, 64 = batch frames

	updatePct, privatePct int     // traffic shares in percent; the rest is public counts
	step                  float64 // an update lands within ±step of the user's home
	nnShare               float64 // share of private queries that are NN; the rest are range
	radius                float64 // private range radius
	countHalf             float64 // half-width of a public count rectangle
}

// workloads is the benchmark's fixed workload list, in BENCHMARK.json order.
var workloads = []spec{
	{
		// Small steps, cheap kernels, single lbsd: protocol and the forward hop dominate, so wire work shows and kernel work should not.
		name:  "commute_direct",
		users: 20000, objects: 5000, k: 25, frame: 1,
		updatePct: 70, privatePct: 25, step: 0.002, nnShare: 1, radius: 0.02, countHalf: 0.02,
	},
	{
		// Byte-identical stream to commute_direct behind a router over 4 shards: only the routing tier and its extra hop differ.
		name:  "commute_routed",
		users: 20000, objects: 5000, k: 25, frame: 1, shards: 4,
		updatePct: 70, privatePct: 25, step: 0.002, nnShare: 1, radius: 0.02, countHalf: 0.02,
	},
	{
		// Same city in 64-entry frames: wire cost amortised 64x, so the anonymizer batch pipeline and the server batch engine dominate.
		name:  "city_batch",
		users: 20000, objects: 5000, k: 25, frame: frameEntries,
		updatePct: 50, privatePct: 30, step: 0.002, nnShare: 0.5, radius: 0.02, countHalf: 0.02,
	},
	{
		// K=100, 50000 objects, read-dominated with large counts: server, rtree, regidx, prob and response encoding dominate, the wire is a small share.
		name:  "analyst_largek",
		users: 20000, objects: 50000, k: 100, frame: 1,
		updatePct: 20, privatePct: 50, step: 0.05, nnShare: 0.5, radius: 0.02, countHalf: 0.1,
	},
}

// city is the generated data set of one run: where every user lives and
// where every public object stands.
type city struct {
	homes   []geo.Point // homes[id-1]
	objects []server.PublicObject
}

func newCity(sp spec, seed uint64) (*city, error) {
	st, err := mobility.NewStream(mobility.StreamSpec{World: world, Seed: citySeed})
	if err != nil {
		return nil, err
	}
	c := &city{homes: make([]geo.Point, sp.users)}
	for i := range c.homes {
		// The stream hashes (id, tick) into a position, so shifting the id
		// space by the seed samples fresh residents of the same city.
		c.homes[i] = st.Pos(seed<<32|uint64(i+1), 0, nil)
	}
	pts, err := mobility.GeneratePoints(mobility.PopulationSpec{
		N: sp.objects, World: world, Dist: mobility.Uniform, Seed: seed ^ 0x0b7ec75,
	})
	if err != nil {
		return nil, err
	}
	c.objects = make([]server.PublicObject, len(pts))
	for i, p := range pts {
		c.objects[i] = server.PublicObject{ID: uint64(i + 1), Class: objectClass, Loc: p}
	}
	return c, nil
}

// entry is one update, private query or public count. Single-message ops
// carry one entry, batch frames carry frameEntries of one kind.
type entry struct {
	kind   opKind
	nn     bool      // private query: NN, otherwise range
	id     uint64    // the user (0 in batch query frames, which carry regions)
	loc    geo.Point // the user's exact location
	rect   geo.Rect  // count: the query rectangle; batch private: the cloaked region
	radius float64   // private range radius
}

// generator produces one client's request stream. It is a pure function of
// (spec, city, seed, client): replies never feed back into it.
type generator struct {
	sp    spec
	homes []geo.Point
	src   *rng.Source
	lo, n int // this client owns user ids lo+1 .. lo+n
	buf   []entry
}

func newGenerator(sp spec, c *city, seed uint64, client int) *generator {
	per := sp.users / clients
	return &generator{
		sp:    sp,
		homes: c.homes,
		src:   rng.New(seed*0x9e3779b97f4a7c15 + uint64(client) + 1),
		lo:    client * per,
		n:     per,
		buf:   make([]entry, sp.frame),
	}
}

func (g *generator) jitter(p geo.Point, d float64) geo.Point {
	return world.ClampPoint(geo.Pt(p.X+g.src.Range(-d, d), p.Y+g.src.Range(-d, d)))
}

// ownUser draws one of this client's users and a location near her home.
func (g *generator) ownUser() (uint64, geo.Point) {
	i := g.lo + g.src.Intn(g.n)
	return uint64(i + 1), g.jitter(g.homes[i], g.sp.step)
}

// anywhere draws a query centre uniformly over the world: an analyst
// sweeps the map, she does not follow the crowd. The city's users spread
// far enough between their clusters that few rectangles come back empty.
func (g *generator) anywhere() geo.Point { return geo.Pt(g.src.Float64(), g.src.Float64()) }

// next returns the client's next op. The slice is reused by the following
// call.
func (g *generator) next() []entry {
	kind := opCount
	if r := g.src.Intn(100); r < g.sp.updatePct {
		kind = opUpdate
	} else if r < g.sp.updatePct+g.sp.privatePct {
		kind = opPrivate
	}
	ents := g.buf[:g.sp.frame]
	// Batch query frames cluster their rectangles around one centre, as
	// lbsload -query-batch does, so shared descents have something to share.
	var centre geo.Point
	if g.sp.frame > 1 && kind != opUpdate {
		centre = g.anywhere()
	}
	for i := range ents {
		e := entry{kind: kind}
		switch {
		case kind == opUpdate:
			e.id, e.loc = g.ownUser()
		case kind == opPrivate && g.sp.frame == 1:
			e.id, e.loc = g.ownUser()
			e.nn = g.src.Float64() < g.sp.nnShare
			e.radius = g.sp.radius
		case kind == opPrivate:
			e.loc = g.jitter(centre, 0.08)
			e.rect = geo.RectAround(e.loc, 0.005+0.015*g.src.Float64()).Clip(world)
			e.nn = g.src.Float64() < g.sp.nnShare
			e.radius = g.sp.radius
		case g.sp.frame == 1:
			e.rect = geo.RectAround(g.anywhere(), g.sp.countHalf).Clip(world)
		default:
			e.rect = geo.RectAround(g.jitter(centre, 0.08), g.sp.countHalf).Clip(world)
		}
		ents[i] = e
	}
	return ents
}

// streamHash fingerprints the request stream of a (spec, seed): the first
// ops of every client, field by field. The workload's name and topology
// are not part of it, so two workloads that must see the same traffic can
// be checked for it.
func streamHash(sp spec, seed uint64) (string, error) {
	const opsPerClient = 2000
	c, err := newCity(sp, seed)
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	var b [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	for cl := 0; cl < clients; cl++ {
		g := newGenerator(sp, c, seed, cl)
		for i := 0; i < opsPerClient; i++ {
			for _, e := range g.next() {
				u64(uint64(e.kind))
				if e.nn {
					u64(1)
				} else {
					u64(0)
				}
				u64(e.id)
				f64(e.loc.X)
				f64(e.loc.Y)
				f64(e.rect.Min.X)
				f64(e.rect.Min.Y)
				f64(e.rect.Max.X)
				f64(e.rect.Max.Y)
				f64(e.radius)
			}
		}
	}
	for _, o := range c.objects {
		f64(o.Loc.X)
		f64(o.Loc.Y)
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}
