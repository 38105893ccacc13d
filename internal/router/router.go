// Package router implements the spatially-partitioned routing tier: a
// thin stateless-data layer that spreads one logical database server
// across N lbsd shards. Space is cut into a grid of tiles (tiles.go),
// each shard owns one contiguous Hilbert-curve range of them, and a
// request goes to exactly the shards whose tiles its rectangle
// intersects: relayed whole when one shard owns them all (Relay),
// scattered and gathered otherwise. Point data (stationary and moving
// objects) lives on one shard; cloaked user regions are replicated to
// every shard whose tiles their rectangle overlaps, so each shard can
// answer count queries over its own residents.
//
// The tier is answer-preserving by construction, not by best effort: each
// query kind reaches a sound superset of the relevant shards and gathers
// through the same pure combination rules the single server uses
// (server.SortObjects, server.CombineNNParts, server.CombineCountProbs),
// so a router over any shard count returns bit-identical bytes to one
// lbsd holding all the data. The differential suite pins this down.
package router

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/trace"
)

// MaxShards bounds the fleet: user residency is a shard bitmask in one
// machine word, and realistic deployments of this tier are far smaller.
const MaxShards = 64

// nnBoundSlack pads the phase-two NN scatter radius so that a sqrt
// rounded down a ulp cannot exclude a tile holding a boundary candidate.
const nnBoundSlack = 1e-9

// Shard is the router's view of one database shard — the subset of the
// database client surface the tier scatters over. *protocol.DatabaseClient
// implements it; tests plug in in-process fakes.
type Shard interface {
	UpdatePrivateCtx(ctx context.Context, id uint64, region geo.Rect) error
	RemovePrivateCtx(ctx context.Context, id uint64) error
	UpdateMovingCtx(ctx context.Context, id uint64, loc geo.Point) error
	RemoveMovingCtx(ctx context.Context, id uint64) (bool, error)
	LoadStationaryCtx(ctx context.Context, objs []server.PublicObject) error
	PrivateRangeCtx(ctx context.Context, q server.PrivateRangeQuery) ([]server.PublicObject, error)
	NNPartsCtx(ctx context.Context, q server.PrivateNNQuery) (server.NNParts, error)
	CountProbsCtx(ctx context.Context, q server.PublicRangeCountQuery) ([]server.UserProb, error)
	ShardBatchCtx(ctx context.Context, subs []SubQuery) ([]SubResult, error)
	StatsCtx(ctx context.Context) (stationary, private int, err error)
}

// SubQuery is one batch entry scattered to one shard, tagged with its
// index in the original batch so the gather can restore input order.
type SubQuery struct {
	Index int
	Entry server.BatchEntry
}

// SubResult is one shard's partial answer to one SubQuery. Err carries
// the entry's failure cause ("" = success). NN and Count are partial
// per-partition forms; the router finishes them with server.CombineNNParts
// and server.CombineCountProbs so the batch path and the single-query path
// share one finalize.
type SubResult struct {
	Index int
	Kind  server.BatchKind
	Err   string
	Range []server.PublicObject
	NN    server.NNParts
	Count []server.UserProb
}

// Topology describes the tier's layout — what MsgShardMap reports.
type Topology struct {
	World      geo.Rect
	Cols, Rows int
	Shards     int
	Addrs      []string
	// Owners maps tile id (row-major) to owning shard.
	Owners []int
}

// Config parameterizes a Router.
type Config struct {
	// World is the spatial domain, identical to every shard's world.
	World geo.Rect
	// Shards are the shard links, at most MaxShards. Shard 0 doubles as
	// the canonical scapegoat: requests whose rectangle misses the world
	// entirely are forwarded there so the caller sees the exact
	// validation error (or exact empty answer) a single server gives.
	Shards []Shard
	// Addrs are the shard addresses reported by Topology (optional; when
	// set, the length must match Shards).
	Addrs []string
	// Tiles is the grid resolution per axis (default 16 → 256 tiles,
	// max 256 per axis so a tile owner fits the wire's uint16).
	Tiles int
	// Metrics receives the route_* series (optional).
	Metrics *obs.Registry
	// Tracer records route_scatter / route_gather spans (optional; nil is
	// a no-op tracer).
	Tracer *trace.Tracer
}

// Router routes requests for one logical database over N shards. All
// methods are safe for concurrent use. The router is the only writer of
// its residency maps; concurrent updates to the *same* id may transiently
// over-replicate (masks are merged conservatively) but never lose data.
type Router struct {
	world  geo.Rect
	grid   tileGrid
	owner  []int // tile id → shard: hilbertOwners(tiles, len(shards))
	shards []Shard
	addrs  []string
	tracer *trace.Tracer
	met    *metrics

	// Residency-map mutex. Ranked after the anonymizer tier's locks: a
	// routed deployment may re-enter the router from a forward while a
	// stripe or index lock is held upstream, never the reverse.
	mu          sync.Mutex        //lint:lock router@2
	userOwners  map[uint64]uint64 // user id → bitmask of shards holding her region
	movingOwner map[uint64]int    // moving object id → owning shard
}

// New builds a Router over the given shards.
func New(cfg Config) (*Router, error) {
	if !cfg.World.Valid() || cfg.World.Area() <= 0 {
		return nil, fmt.Errorf("router: invalid world %v", cfg.World)
	}
	n := len(cfg.Shards)
	if n < 1 || n > MaxShards {
		return nil, fmt.Errorf("router: need between 1 and %d shards, got %d", MaxShards, n)
	}
	if len(cfg.Addrs) != 0 && len(cfg.Addrs) != n {
		return nil, fmt.Errorf("router: %d addrs for %d shards", len(cfg.Addrs), n)
	}
	tiles := cfg.Tiles
	if tiles <= 0 {
		tiles = 16
	}
	if tiles > 256 {
		return nil, fmt.Errorf("router: %d tiles per axis exceeds the 256 cap", tiles)
	}
	return &Router{
		world:       cfg.World,
		grid:        tileGrid{world: cfg.World, cols: tiles, rows: tiles},
		owner:       hilbertOwners(tiles, n),
		shards:      cfg.Shards,
		addrs:       cfg.Addrs,
		tracer:      cfg.Tracer,
		met:         newMetrics(cfg.Metrics, n),
		userOwners:  make(map[uint64]uint64),
		movingOwner: make(map[uint64]int),
	}, nil
}

// Topology reports the tier's layout.
func (r *Router) Topology() Topology {
	return Topology{
		World:  r.world,
		Cols:   r.grid.cols,
		Rows:   r.grid.rows,
		Shards: len(r.shards),
		Addrs:  append([]string(nil), r.addrs...),
		Owners: append([]int(nil), r.owner...),
	}
}

// ownersOf maps a request rectangle to the distinct shards owning its
// covered tiles, ascending. A rectangle with no world intersection — out
// of bounds, or geometrically invalid — routes to shard 0, which
// reproduces the exact validation error (or exact empty answer) a single
// server would give.
func (r *Router) ownersOf(rect geo.Rect) []int { return maskShards(r.ownerMask(rect)) }

// ownerMask is ownersOf as a shard bitmask.
func (r *Router) ownerMask(rect geo.Rect) uint64 { return r.tileMask(r.grid.cover(rect)) }

// tileMask is the bitmask of the shards owning tiles, or shard 0 alone
// when tiles is empty.
func (r *Router) tileMask(tiles []int) uint64 {
	if len(tiles) == 0 {
		return 1
	}
	var mask uint64
	for _, t := range tiles {
		mask |= 1 << uint(r.owner[t])
	}
	return mask
}

// nnMask returns the shards owning tiles within √bound of region (plus
// float slack): every object a min–max bound of bound admits as a
// candidate lives there.
func (r *Router) nnMask(region geo.Rect, bound float64) uint64 {
	return r.ownerMask(region.Expand(math.Sqrt(bound) * (1 + nnBoundSlack)))
}

// allShards returns every shard index.
func (r *Router) allShards() []int {
	out := make([]int, len(r.shards))
	for i := range out {
		out[i] = i
	}
	return out
}

// maskOf packs ascending shard indices into a bitmask.
func maskOf(shards []int) uint64 {
	var m uint64
	for _, s := range shards {
		m |= 1 << uint(s)
	}
	return m
}

// maskShards unpacks a bitmask into ascending shard indices.
func maskShards(mask uint64) []int {
	out := make([]int, 0, bits.OnesCount64(mask))
	for mask != 0 {
		s := bits.TrailingZeros64(mask)
		out = append(out, s)
		mask &^= 1 << uint(s)
	}
	return out
}

// scatterCall fans call out to the listed shards concurrently and returns
// the per-target results and errors, index-aligned with targets. This is
// the package's single scatter point: the route_scatter span, the fanout
// histogram and the per-shard call/error counters all hang off it. A
// single target runs on the caller's goroutine.
func scatterCall[T any](r *Router, ctx context.Context, targets []int, call func(ctx context.Context, shard int) (T, error)) ([]T, []error) {
	sp, ctx := trace.Start(ctx, r.tracer, "route_scatter")
	sp.SetAttrs(trace.Int("fanout", int64(len(targets))))
	defer sp.End()
	r.met.fanout.Observe(float64(len(targets)))
	if len(targets) > 1 {
		r.met.straddles.Inc()
	}
	res := make([]T, len(targets))
	errs := make([]error, len(targets))
	one := func(k, s int) {
		r.met.shardCalls[s].Inc()
		v, err := call(ctx, s)
		if err != nil {
			r.met.shardErrs[s].Inc()
			errs[k] = err
		} else {
			res[k] = v
		}
	}
	if len(targets) == 1 {
		one(0, targets[0])
		return res, errs
	}
	var wg sync.WaitGroup
	for k, s := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			one(k, s)
		}()
	}
	wg.Wait()
	return res, errs
}

// Relayer is a shard link that forwards a request frame unchanged and
// hands back the reply frame undecoded: *protocol.DatabaseClient. Links
// that do not implement it (test fakes, tracing wrappers) are scattered
// to and gathered from, never relayed through.
type Relayer interface {
	RelayCtx(ctx context.Context, typ byte, payload []byte) ([]byte, error)
}

// Relay answers a private range, public count or private NN request from
// the one shard owning every tile its routing rectangle rect covers
// (region ⊕ radius, the count query, the NN region). The payload goes to
// that shard unchanged, through scatterCall's accounting; the shard runs
// the final kernel and its reply comes back undecoded. ok is false, and
// no shard was called, when rect straddles shards or the owner's link is
// not a Relayer: the caller scatters. Each relayed reply is the single
// server's answer:
//
//   - Range. Every object inside the filter rectangle lies in a covered
//     tile, so on its one owner, whose sorted answer is the whole answer.
//   - Count. Every user whose region meets the query shares a covered
//     tile with it on which residency places her region (tiles.go). The
//     owner holds every contributing user; its fold is bit-identical.
//   - NN (nnBound set; rect is the region). nnBound reads T′, the least
//     MaxDist²(o, rect) over the reply's candidates, so T′ ≥ the shard's
//     min–max bound T ≥ the global bound T*. The reply is kept only if
//     the same shard alone owns rect ⊕ √T′·(1+nnBoundSlack), which holds
//     every object with MinDist² ≤ T′. The object attaining T* is one, so T = T*, and
//     so is every global candidate (MinDist² ≤ T*): the shard's superset
//     is the global one, and so is its decision. Otherwise the relay is a
//     fallback: ok is false after the call, and the caller runs the
//     two-wave path.
func (r *Router) Relay(ctx context.Context, rect geo.Rect, typ byte, payload []byte, nnBound func(reply []byte, region geo.Rect) float64) (reply []byte, ok bool, err error) {
	mask := r.ownerMask(rect)
	s := bits.TrailingZeros64(mask)
	link, can := r.shards[s].(Relayer)
	if mask&(mask-1) != 0 || !can {
		return nil, false, nil
	}
	res, errs := scatterCall(r, ctx, []int{s}, func(ctx context.Context, _ int) ([]byte, error) {
		return link.RelayCtx(ctx, typ, payload)
	})
	if errs[0] == nil && nnBound != nil && r.nnMask(rect, nnBound(res[0], rect)) != mask {
		r.met.fallbacks.Inc()
		return nil, false, nil
	}
	r.met.relays.Inc()
	return res[0], true, errs[0]
}

// firstErr returns the first non-nil error. Targets are always scattered
// in ascending shard order, so the choice is deterministic.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// setUserMask records (or clears) a user's residency mask and keeps the
// gauge in step.
func (r *Router) setUserMask(id uint64, mask uint64) {
	r.mu.Lock()
	if mask == 0 {
		delete(r.userOwners, id)
	} else {
		r.userOwners[id] = mask
	}
	r.met.users.Set(float64(len(r.userOwners)))
	r.mu.Unlock()
}

// residencyOwners returns the shards a user's region must live on: the
// owners of the tiles it overlaps with positive area, plus shard 0 when
// the region hangs past the world edge. A region touching a tile edge is
// not replicated across it. A region with no positive-area overlap with
// the world takes the closed cover instead. The server accepts any region
// intersecting the world, and a count query lying entirely outside the
// world (routed to shard 0 by the fallback) can still overlap the
// out-of-world part of such a region. Queries that do intersect the world
// always reach a shard holding every region they meet (tiles.go states
// the argument).
func (r *Router) residencyOwners(region geo.Rect) []int {
	tiles := r.grid.overlapCover(region)
	if len(tiles) == 0 {
		tiles = r.grid.cover(region)
	}
	mask := r.tileMask(tiles)
	if region.Valid() && !(r.world.Contains(region.Min) && r.world.Contains(region.Max)) {
		mask |= 1
	}
	return maskShards(mask)
}

// UpdatePrivateCtx replicates a user's cloaked region to every shard
// residencyOwners names and withdraws her from shards she left. On
// partial failure the residency mask is merged conservatively (old ∪
// succeeded) so a retry — updates are idempotent, and the anonymizer's
// spill queue retries — converges to the exact owner set.
func (r *Router) UpdatePrivateCtx(ctx context.Context, id uint64, region geo.Rect) error {
	owners := r.residencyOwners(region)
	newMask := maskOf(owners)
	r.mu.Lock()
	prev := r.userOwners[id]
	r.mu.Unlock()

	_, errs := scatterCall(r, ctx, owners, func(ctx context.Context, s int) (struct{}, error) {
		return struct{}{}, r.shards[s].UpdatePrivateCtx(ctx, id, region)
	})
	if err := firstErr(errs); err != nil {
		var succ uint64
		for k, s := range owners {
			if errs[k] == nil {
				succ |= 1 << uint(s)
			}
		}
		// A remote validation error stores nothing anywhere (every shard
		// applies the same pure check), so prev|succ == prev|0 stays
		// accurate; transport errors leave the union as the safe superset.
		if prev|succ != 0 {
			r.setUserMask(id, prev|succ)
		}
		return err
	}
	if stale := prev &^ newMask; stale != 0 {
		departed := maskShards(stale)
		_, rerrs := scatterCall(r, ctx, departed, func(ctx context.Context, s int) (struct{}, error) {
			return struct{}{}, r.shards[s].RemovePrivateCtx(ctx, id)
		})
		for k, s := range departed {
			if rerrs[k] != nil {
				newMask |= 1 << uint(s) // still resident there; retry later
			}
		}
		r.setUserMask(id, newMask)
		return firstErr(rerrs)
	}
	r.setUserMask(id, newMask)
	return nil
}

// RemovePrivateCtx withdraws a user from every shard holding her region.
// An unknown user fans out to all shards — removal of an absent user is a
// no-op there, matching the single server.
func (r *Router) RemovePrivateCtx(ctx context.Context, id uint64) error {
	r.mu.Lock()
	prev, known := r.userOwners[id]
	r.mu.Unlock()
	targets := r.allShards()
	if known {
		targets = maskShards(prev)
	}
	_, errs := scatterCall(r, ctx, targets, func(ctx context.Context, s int) (struct{}, error) {
		return struct{}{}, r.shards[s].RemovePrivateCtx(ctx, id)
	})
	if known {
		var failed uint64
		for k, s := range targets {
			if errs[k] != nil {
				failed |= 1 << uint(s)
			}
		}
		r.setUserMask(id, failed)
	}
	return firstErr(errs)
}

// UpdateMovingCtx routes a moving-object upsert to the shard owning the
// location's tile. When the object crosses an ownership boundary the
// router performs a handoff: upsert on the new owner first, then removal
// from the old — the object is never absent from both. The owner map
// advances only after the full handoff, so a failed removal is retried by
// the next (idempotent) update.
func (r *Router) UpdateMovingCtx(ctx context.Context, id uint64, loc geo.Point) error {
	if !r.world.Contains(loc) {
		// Every shard rejects an out-of-world location with the exact
		// single-server error; ask shard 0 so the caller sees it verbatim.
		_, errs := scatterCall(r, ctx, []int{0}, func(ctx context.Context, s int) (struct{}, error) {
			return struct{}{}, r.shards[s].UpdateMovingCtx(ctx, id, loc)
		})
		return firstErr(errs)
	}
	dst := r.owner[r.grid.tileOf(loc)]
	r.mu.Lock()
	prev, known := r.movingOwner[id]
	r.mu.Unlock()

	_, errs := scatterCall(r, ctx, []int{dst}, func(ctx context.Context, s int) (struct{}, error) {
		return struct{}{}, r.shards[s].UpdateMovingCtx(ctx, id, loc)
	})
	if err := firstErr(errs); err != nil {
		return err
	}
	if known && prev != dst {
		_, rerrs := scatterCall(r, ctx, []int{prev}, func(ctx context.Context, s int) (bool, error) {
			return r.shards[s].RemoveMovingCtx(ctx, id)
		})
		if err := firstErr(rerrs); err != nil {
			return err // owner map stays at prev; the retry re-runs the handoff
		}
		r.met.handoffs.Inc()
	}
	r.mu.Lock()
	r.movingOwner[id] = dst
	r.mu.Unlock()
	return nil
}

// RemoveMovingCtx deletes a moving object. With a known owner the removal
// is a single-shard call; otherwise it fans out everywhere and ORs the
// per-shard "existed" answers.
func (r *Router) RemoveMovingCtx(ctx context.Context, id uint64) (bool, error) {
	r.mu.Lock()
	prev, known := r.movingOwner[id]
	r.mu.Unlock()
	targets := r.allShards()
	if known {
		targets = []int{prev}
	}
	res, errs := scatterCall(r, ctx, targets, func(ctx context.Context, s int) (bool, error) {
		return r.shards[s].RemoveMovingCtx(ctx, id)
	})
	if err := firstErr(errs); err != nil {
		return false, err
	}
	existed := false
	for _, ok := range res {
		existed = existed || ok
	}
	r.mu.Lock()
	delete(r.movingOwner, id)
	r.mu.Unlock()
	return existed, nil
}

// LoadStationaryCtx validates the full load exactly as one server would,
// partitions it by tile ownership, and bulk-loads every shard — including
// empty partitions, because LoadStationary has replace semantics and a
// shard that received nothing must also hold nothing.
func (r *Router) LoadStationaryCtx(ctx context.Context, objs []server.PublicObject) error {
	if err := server.ValidateStationary(r.world, objs); err != nil {
		return err
	}
	parts := make([][]server.PublicObject, len(r.shards))
	for _, o := range objs {
		s := r.owner[r.grid.tileOf(o.Loc)]
		parts[s] = append(parts[s], o)
	}
	_, errs := scatterCall(r, ctx, r.allShards(), func(ctx context.Context, s int) (struct{}, error) {
		return struct{}{}, r.shards[s].LoadStationaryCtx(ctx, parts[s])
	})
	return firstErr(errs)
}

// PrivateRangeCtx scatters a private range query to the shards covering
// the region expanded by the radius (the same filter rectangle the
// single-server index probe uses, so the union of the per-shard answers
// is exactly the single-server candidate set) and gathers the canonical
// sorted union.
func (r *Router) PrivateRangeCtx(ctx context.Context, q server.PrivateRangeQuery) ([]server.PublicObject, error) {
	owners := r.ownersOf(q.Region.Expand(q.Radius))
	res, errs := scatterCall(r, ctx, owners, func(ctx context.Context, s int) ([]server.PublicObject, error) {
		return r.shards[s].PrivateRangeCtx(ctx, q)
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	gsp, _ := r.met.gather.Start(ctx, r.tracer)
	defer gsp.End()
	out := make([]server.PublicObject, 0, totalLen(res))
	for _, part := range res {
		out = append(out, part...)
	}
	server.SortObjects(out)
	return out, nil
}

// PrivateNNCtx answers a private NN query in two scatter waves. Wave one
// asks the shards covering the region itself for their NN parts; the
// smallest returned min–max bound T caps the distance any candidate can
// be from the region, so wave two extends the scatter to the shards
// covering the region expanded by √T (plus float slack) — exactly the
// area that can still hold candidates. Combining all parts through
// server.CombineNNParts reproduces the single-server answer bit for bit.
func (r *Router) PrivateNNCtx(ctx context.Context, q server.PrivateNNQuery) (server.PrivateNNResult, error) {
	phase1 := r.ownersOf(q.Region)
	parts, errs := scatterCall(r, ctx, phase1, func(ctx context.Context, s int) (server.NNParts, error) {
		return r.shards[s].NNPartsCtx(ctx, q)
	})
	if err := firstErr(errs); err != nil {
		return server.PrivateNNResult{}, err
	}
	bound := math.Inf(1)
	for _, p := range parts {
		bound = min(bound, p.Bound)
	}
	if extra := maskShards(r.nnMask(q.Region, bound) &^ maskOf(phase1)); len(extra) > 0 {
		more, errs2 := scatterCall(r, ctx, extra, func(ctx context.Context, s int) (server.NNParts, error) {
			return r.shards[s].NNPartsCtx(ctx, q)
		})
		if err := firstErr(errs2); err != nil {
			return server.PrivateNNResult{}, err
		}
		parts = append(parts, more...)
	}
	gsp, _ := r.met.gather.Start(ctx, r.tracer)
	defer gsp.End()
	return server.CombineNNParts(q.Region, parts...), nil
}

// PublicCountCtx scatters a probabilistic count to the shards covering
// the query rectangle, deduplicates replicated residents (replicas store
// the same region, so their probabilities are bit-identical) and folds
// the unique probabilities through the single-server accumulation rule.
func (r *Router) PublicCountCtx(ctx context.Context, q server.PublicRangeCountQuery) (server.PublicRangeCountResult, error) {
	owners := r.ownersOf(q.Query)
	res, errs := scatterCall(r, ctx, owners, func(ctx context.Context, s int) ([]server.UserProb, error) {
		return r.shards[s].CountProbsCtx(ctx, q)
	})
	if err := firstErr(errs); err != nil {
		return server.PublicRangeCountResult{}, err
	}
	gsp, _ := r.met.gather.Start(ctx, r.tracer)
	defer gsp.End()
	return server.CombineCountProbs(mergeUserProbs(res)), nil
}

// StatsCtx sums the shards' stationary counts (objects live on exactly
// one shard) and reports the router's resident-user count (regions are
// replicated, so summing shards would overcount).
func (r *Router) StatsCtx(ctx context.Context) (stationary, private int, err error) {
	type pair struct{ st, pr int }
	res, errs := scatterCall(r, ctx, r.allShards(), func(ctx context.Context, s int) (pair, error) {
		st, pr, err := r.shards[s].StatsCtx(ctx)
		return pair{st, pr}, err
	})
	if err := firstErr(errs); err != nil {
		return 0, 0, err
	}
	for _, p := range res {
		stationary += p.st
	}
	r.mu.Lock()
	private = len(r.userOwners)
	r.mu.Unlock()
	return stationary, private, nil
}

// totalLen sums slice lengths.
func totalLen[T any](parts [][]T) int {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	return n
}

// mergeUserProbs concatenates per-shard (id, probability) pair lists,
// sorts by id and drops replicated users. Replicas of one user carry
// bit-identical probabilities (the overlap is a pure function of region
// and query), so dropping duplicates loses nothing.
func mergeUserProbs(parts [][]server.UserProb) []server.UserProb {
	out := make([]server.UserProb, 0, totalLen(parts))
	for _, p := range parts {
		out = append(out, p...)
	}
	slices.SortFunc(out, func(a, b server.UserProb) int { return cmp.Compare(a.ID, b.ID) })
	uniq := out[:0]
	for i, up := range out {
		if i == 0 || up.ID != out[i-1].ID {
			uniq = append(uniq, up)
		}
	}
	return uniq
}

// errUnknownKind mirrors the server's per-entry unknown-kind failure.
func errUnknownKind(kind server.BatchKind) error {
	return fmt.Errorf("server: unknown batch query kind %d", byte(kind))
}

// BatchQueryCtx scatters a mixed batch: each entry is routed to the
// shards its rectangle requires, per-shard sub-batches travel as one
// forwarded frame each, and NN entries get a second wave once their
// phase-one bound is known (exactly as PrivateNNCtx does per query).
// Per-entry failures come back as *server.BatchEntryError values in the
// items with the same text a single server produces; the call-level error
// covers transport only. SharedHits stays zero here: each shard answers
// its sub-batch through its single-query methods, whose memo hits show in
// the shard's own lbs_private_memo_hits_total.
func (r *Router) BatchQueryCtx(ctx context.Context, entries []server.BatchEntry) (server.BatchResult, error) {
	n := len(entries)
	res := server.BatchResult{Items: make([]server.BatchItemResult, n)}
	if n == 0 {
		return res, nil
	}
	ownersByEntry := make([][]int, n)
	wave1 := make([][]SubQuery, len(r.shards))
	for i, be := range entries {
		var owners []int
		switch be.Kind {
		case server.BatchPrivateRange:
			owners = r.ownersOf(be.Range.Region.Expand(be.Range.Radius))
		case server.BatchPrivateNN:
			owners = r.ownersOf(be.NN.Region)
		case server.BatchPublicCount:
			owners = r.ownersOf(be.Count.Query)
		default:
			res.Items[i].Err = &server.BatchEntryError{Index: i, Kind: be.Kind, Err: errUnknownKind(be.Kind)}
			continue
		}
		ownersByEntry[i] = owners
		for _, s := range owners {
			wave1[s] = append(wave1[s], SubQuery{Index: i, Entry: be})
		}
	}
	byEntry := make([][]SubResult, n)
	if err := r.scatterSubBatches(ctx, wave1, byEntry); err != nil {
		return server.BatchResult{}, err
	}

	// Second wave for NN entries whose bound opens a wider neighborhood.
	wave2 := make([][]SubQuery, len(r.shards))
	for i, be := range entries {
		if be.Kind != server.BatchPrivateNN || res.Items[i].Err != nil || firstSubErr(byEntry[i]) != "" {
			continue
		}
		bound := math.Inf(1)
		for _, sr := range byEntry[i] {
			bound = min(bound, sr.NN.Bound)
		}
		for _, s := range maskShards(r.nnMask(be.NN.Region, bound) &^ maskOf(ownersByEntry[i])) {
			wave2[s] = append(wave2[s], SubQuery{Index: i, Entry: be})
		}
	}
	if err := r.scatterSubBatches(ctx, wave2, byEntry); err != nil {
		return server.BatchResult{}, err
	}

	gsp, _ := r.met.gather.Start(ctx, r.tracer)
	defer gsp.End()
	for i, be := range entries {
		if res.Items[i].Err != nil {
			continue
		}
		parts := byEntry[i]
		if cause := firstSubErr(parts); cause != "" {
			res.Items[i].Err = &server.BatchEntryError{Index: i, Kind: be.Kind, Err: errors.New(cause)}
			continue
		}
		switch be.Kind {
		case server.BatchPrivateRange:
			var objs []server.PublicObject
			for _, sr := range parts {
				objs = append(objs, sr.Range...)
			}
			server.SortObjects(objs)
			res.Items[i].Range = objs
		case server.BatchPrivateNN:
			nnParts := make([]server.NNParts, len(parts))
			for k, sr := range parts {
				nnParts[k] = sr.NN
			}
			res.Items[i].NN = server.CombineNNParts(be.NN.Region, nnParts...)
		case server.BatchPublicCount:
			pairs := make([][]server.UserProb, len(parts))
			for k, sr := range parts {
				pairs[k] = sr.Count
			}
			res.Items[i].Count = server.CombineCountProbs(mergeUserProbs(pairs))
		}
	}
	return res, nil
}

// scatterSubBatches sends every non-empty per-shard sub-batch and files
// the returned sub-results into byEntry, keeping shard-ascending order so
// error selection is deterministic. A transport failure fails the whole
// batch call.
func (r *Router) scatterSubBatches(ctx context.Context, perShard [][]SubQuery, byEntry [][]SubResult) error {
	var targets []int
	for s, subs := range perShard {
		if len(subs) > 0 {
			targets = append(targets, s)
		}
	}
	if len(targets) == 0 {
		return nil
	}
	res, errs := scatterCall(r, ctx, targets, func(ctx context.Context, s int) ([]SubResult, error) {
		return r.shards[s].ShardBatchCtx(ctx, perShard[s])
	})
	if err := firstErr(errs); err != nil {
		return err
	}
	for k, s := range targets {
		if len(res[k]) != len(perShard[s]) {
			return fmt.Errorf("router: shard %d answered %d of %d sub-queries", s, len(res[k]), len(perShard[s]))
		}
		for _, sr := range res[k] {
			if sr.Index < 0 || sr.Index >= len(byEntry) {
				return fmt.Errorf("router: shard %d returned sub-result for entry %d of %d", s, sr.Index, len(byEntry))
			}
			byEntry[sr.Index] = append(byEntry[sr.Index], sr)
		}
	}
	return nil
}

// firstSubErr returns the first failure cause among a gathered entry's
// sub-results ("" when none). Parts are appended in shard-ascending
// order, and a failing entry fails identically on every shard (the checks
// are pure), so the choice is deterministic.
func firstSubErr(parts []SubResult) string {
	for _, sr := range parts {
		if sr.Err != "" {
			return sr.Err
		}
	}
	return ""
}
