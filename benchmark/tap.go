package main

import (
	"context"
	"encoding/binary"
	"math/bits"
	"net"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/geo"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/trace"
)

// linkClass names the three kinds of TCP link in the deployment.
type linkClass int

const (
	linkClient  linkClass = iota // loadgen → anonymizer and loadgen → database tier
	linkForward                  // anonymizer → database tier
	linkShard                    // router → shard
	numLinks
)

// linkCounters counts traffic on the dialing side of every link of a class.
type linkCounters struct {
	frames, writes, reads, bytes atomic.Int64
}

// spansPerSecond sizes the preallocated span slice from the run's length.
// A traced window ends early when the slice fills; every traced metric is
// a per-op mean, so the window's length does not enter them.
const spansPerSecond = 30_000

// tap is the benchmark's interposition layer for traced runs: counting
// connections under every client (protocol.WithDialer), a timing closure
// around the anonymizer's forward call, timing wrappers around the
// router's shard links, and the span slice they and the clients record
// into. While off, each decorator costs one atomic load and records
// nothing, so one process can measure an untraced and a traced window
// back to back.
type tap struct {
	on     atomic.Bool
	links  [numLinks]linkCounters
	spans  []trace.SpanRecord
	next   atomic.Int64
	ids    atomic.Uint64
	cursor [clients]cursor
	per    int // users per client: user id → owning client
}

// cursor publishes what one client has in flight, so a call intercepted
// on another goroutine can be attributed to the op that caused it. Each
// client has at most one call in flight, which is what makes this exact.
type cursor struct {
	op      atomic.Uint64            // op id of the client's current op
	span    atomic.Uint64            // the client's call span in flight
	forward atomic.Uint64            // the forward span in flight under it
	query   atomic.Pointer[geo.Rect] // region or rectangle of the query in flight
}

func newTap(sp spec, seconds float64) *tap {
	return &tap{spans: make([]trace.SpanRecord, int(spansPerSecond*seconds)), per: sp.users / clients}
}

func (t *tap) full() bool { return t != nil && t.next.Load() >= int64(len(t.spans)) }

// record stores one finished span. TraceID is the op id, so a trace
// viewer lays each op out on its own lane.
func (t *tap) record(op, id, parent uint64, name, proc string, start time.Time, attrs []trace.Attr) {
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		return
	}
	t.spans[i] = trace.SpanRecord{
		TraceID: op, SpanID: id, ParentID: parent, Name: name, Proc: proc,
		Start: start.UnixNano(), Dur: int64(time.Since(start)), Attrs: attrs,
	}
}

func (t *tap) recorded() []trace.SpanRecord {
	return t.spans[:min(t.next.Load(), int64(len(t.spans)))]
}

func (t *tap) clientOf(user uint64) int { return min(int(user-1)/t.per, clients-1) }

// --- spans the clients record around the calls they make ---

// opTrace is one client op being traced; the zero value records nothing.
type opTrace struct {
	t      *tap
	cur    *cursor
	op, id uint64
	start  time.Time
}

type callTrace struct {
	o     opTrace
	id    uint64
	start time.Time
}

func (t *tap) beginOp(client int) opTrace {
	if t == nil || !t.on.Load() {
		return opTrace{}
	}
	o := opTrace{t: t, cur: &t.cursor[client], op: t.ids.Add(1), id: t.ids.Add(1), start: time.Now()}
	o.cur.op.Store(o.op)
	return o
}

// noQuery marks a call that sends the database tier no query.
var noQuery geo.Rect

// call opens a child span around one call into a tier. query is the region
// the database tier will see, for attributing the router's shard calls. It
// is passed by value so that an untraced caller's result stays on its stack.
func (o opTrace) call(query geo.Rect) callTrace {
	if o.t == nil {
		return callTrace{}
	}
	c := callTrace{o: o, id: o.t.ids.Add(1), start: time.Now()}
	if query == noQuery {
		o.cur.query.Store(nil)
	} else {
		o.cur.query.Store(&query)
	}
	o.cur.span.Store(c.id)
	return c
}

func (c callTrace) end(name string) {
	if c.o.t != nil {
		c.o.t.record(c.o.op, c.id, c.o.id, name, "loadgen", c.start, nil)
	}
}

func (o opTrace) end(name string) {
	if o.t != nil {
		o.t.record(o.op, o.id, 0, name, "loadgen", o.start, nil)
	}
}

// --- the forward seam: anonymizer.Config.ForwardCtx ---

type forwardFunc = func(ctx context.Context, id uint64, region geo.Rect) error

func (t *tap) forward(next forwardFunc) forwardFunc {
	return func(ctx context.Context, id uint64, region geo.Rect) error {
		if !t.on.Load() {
			return next(ctx, id, region)
		}
		cur := &t.cursor[t.clientOf(id)]
		span, start := t.ids.Add(1), time.Now()
		cur.forward.Store(span)
		err := next(ctx, id, region)
		t.record(cur.op.Load(), span, cur.span.Load(), "bench_forward", "anonymizer", start, nil)
		return err
	}
}

// --- the shard seam: router.Config.Shards ---

// shardTap times the shard calls the routed workload makes; the rest of
// router.Shard passes through the embedded link.
type shardTap struct {
	router.Shard
	tap   *tap
	shard int
}

// begin starts timing an intercepted shard call; the zero time means the
// tap is off and end will record nothing.
func (s *shardTap) begin() (start time.Time) {
	if s.tap.on.Load() {
		start = time.Now()
	}
	return start
}

// end records the shard call begun at start. Update-path calls carry a
// user id, which names the client; query calls carry the region the
// client published before calling.
func (s *shardTap) end(start time.Time, name string, user uint64, query geo.Rect) {
	if start.IsZero() {
		return
	}
	t := s.tap
	cur := &t.cursor[0]
	var parent uint64
	if query == noQuery {
		cur = &t.cursor[t.clientOf(user)]
		parent = cur.forward.Load()
	} else {
		for c := range t.cursor {
			if q := t.cursor[c].query.Load(); q != nil && q.Eq(query) {
				cur = &t.cursor[c]
				break
			}
		}
		parent = cur.span.Load()
	}
	t.record(cur.op.Load(), t.ids.Add(1), parent, name, "router", start,
		[]trace.Attr{trace.Int("shard", int64(s.shard))})
}

func (s *shardTap) UpdatePrivateCtx(ctx context.Context, id uint64, region geo.Rect) error {
	start := s.begin()
	err := s.Shard.UpdatePrivateCtx(ctx, id, region)
	s.end(start, "bench_shard_update", id, noQuery)
	return err
}

func (s *shardTap) RemovePrivateCtx(ctx context.Context, id uint64) error {
	start := s.begin()
	err := s.Shard.RemovePrivateCtx(ctx, id)
	s.end(start, "bench_shard_remove", id, noQuery)
	return err
}

func (s *shardTap) PrivateRangeCtx(ctx context.Context, q server.PrivateRangeQuery) ([]server.PublicObject, error) {
	start := s.begin()
	res, err := s.Shard.PrivateRangeCtx(ctx, q)
	s.end(start, "bench_shard_range", 0, q.Region)
	return res, err
}

func (s *shardTap) NNPartsCtx(ctx context.Context, q server.PrivateNNQuery) (server.NNParts, error) {
	start := s.begin()
	res, err := s.Shard.NNPartsCtx(ctx, q)
	s.end(start, "bench_shard_nn_parts", 0, q.Region)
	return res, err
}

func (s *shardTap) CountProbsCtx(ctx context.Context, q server.PublicRangeCountQuery) ([]server.UserProb, error) {
	start := s.begin()
	res, err := s.Shard.CountProbsCtx(ctx, q)
	s.end(start, "bench_shard_count_probs", 0, q.Query)
	return res, err
}

// --- the dialer seam: protocol.WithDialer ---

// dialer returns the counting transport for one link class, or nil — the
// protocol's own default dialer — without a tap.
func (t *tap) dialer(class linkClass) func(addr string) (net.Conn, error) {
	if t == nil {
		return nil
	}
	return func(addr string) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, callTimeout)
		if err != nil {
			return nil, err
		}
		return &countConn{Conn: c, tap: t, link: &t.links[class]}, nil
	}
}

// countConn counts the system calls, bytes and protocol frames crossing
// one client-side connection. A protocol.Client serialises its calls, so
// each direction is touched by one goroutine at a time.
type countConn struct {
	net.Conn
	tap    *tap
	link   *linkCounters
	rd, wr frameScan
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.tap.on.Load() {
		c.link.reads.Add(1)
		c.link.bytes.Add(int64(n))
		c.link.frames.Add(c.rd.scan(p[:n]))
	}
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.tap.on.Load() {
		c.link.writes.Add(1)
		c.link.bytes.Add(int64(n))
		c.link.frames.Add(c.wr.scan(p[:n]))
	}
	return n, err
}

// frameScan follows the [u32 length][type][payload] framing through a
// byte stream and counts the frames that start in it, however the stream
// is cut into reads and writes. A window that turns the tap on mid-frame
// miscounts that one frame.
type frameScan struct {
	hdr  [4]byte
	have int   // header bytes collected
	body int64 // bytes of the current frame still to pass
}

func (f *frameScan) scan(p []byte) (frames int64) {
	for len(p) > 0 {
		if f.body > 0 {
			n := min(int64(len(p)), f.body)
			f.body -= n
			p = p[n:]
			continue
		}
		n := copy(f.hdr[f.have:], p)
		f.have += n
		p = p[n:]
		if f.have == len(f.hdr) {
			f.have = 0
			f.body = int64(binary.LittleEndian.Uint32(f.hdr[:]))
			frames++
		}
	}
	return frames
}

// --- what the spans say ---

// spanTotals is the traced window's ledger input: how often and how long
// the intercepted calls ran, per op where that needs the op's whole trace.
type spanTotals struct {
	forwardCalls  int64         // forwards under update calls
	forwardWait   time.Duration // and the time they took
	queryForwards int64         // forwards under cloak-query calls
	updateCall    time.Duration // client → anonymizer update calls, forwards included
	shardCalls    int64
	shardsTouched int64         // Σ over ops of distinct shards called
	shardWait     time.Duration // Σ over ops of time with ≥ 1 shard call open
	routedCall    time.Duration // Σ of the calls that enter the router
}

func summarizeSpans(spans []trace.SpanRecord) spanTotals {
	var tot spanTotals
	type iv struct{ lo, hi int64 }
	type opShards struct {
		ivs  []iv
		mask uint64
	}
	byOp := make(map[uint64]*opShards)
	routedOps := make(map[uint64]time.Duration)
	// A forward is recorded before the call span that caused it, so the
	// update calls are collected first.
	updateCalls := make(map[uint64]bool)
	for i := range spans {
		if s := &spans[i]; s.Name == "bench_call_update" || s.Name == "bench_call_batch_update" {
			updateCalls[s.SpanID] = true
			tot.updateCall += time.Duration(s.Dur)
		}
	}
	for i := range spans {
		s := &spans[i]
		d := time.Duration(s.Dur)
		switch s.Name {
		case "bench_forward":
			routedOps[s.TraceID] += d
			if updateCalls[s.ParentID] {
				tot.forwardCalls++
				tot.forwardWait += d
			} else {
				tot.queryForwards++
			}
		case "bench_call_private_nn", "bench_call_private_range", "bench_call_public_count", "bench_call_batch_query":
			routedOps[s.TraceID] += d
		}
		if s.Proc == "router" {
			tot.shardCalls++
			o := byOp[s.TraceID]
			if o == nil {
				o = &opShards{}
				byOp[s.TraceID] = o
			}
			o.ivs = append(o.ivs, iv{s.Start, s.Start + s.Dur})
			o.mask |= 1 << uint(s.Attrs[0].Int)
		}
	}
	for op, o := range byOp {
		tot.shardsTouched += int64(bits.OnesCount64(o.mask))
		sort.Slice(o.ivs, func(i, j int) bool { return o.ivs[i].lo < o.ivs[j].lo })
		end := int64(0)
		for _, v := range o.ivs {
			if v.hi > end {
				tot.shardWait += time.Duration(v.hi - max(v.lo, end))
				end = v.hi
			}
		}
		tot.routedCall += routedOps[op]
	}
	return tot
}
