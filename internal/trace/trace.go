// Package trace is the repo's distributed-tracing subsystem: per-request
// spans across the three tiers of Figure 1 (mobile client → location
// anonymizer → database server). A trace is minted once at the edge (the
// load tool or protocol.Client), carried across both TCP hops inside the
// MsgTraced envelope frame, and recorded as named spans at every pipeline
// stage. Each process keeps its spans in a fixed-size lock-free ring
// buffer; the rings are pulled (over HTTP /traces or the MsgTraces wire
// message) and merged into one cross-process timeline per request.
//
// The design constraints mirror the obs package: recording a span on the
// hot path takes no locks (an atomic cursor plus an atomic pointer store),
// an unsampled request costs two branches, and a nil *Tracer is a valid
// no-op tracer so call sites never nil-check.
package trace

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// FlagSampled marks a trace whose spans are recorded. The decision is
// made once, at the root, and propagated in the envelope; downstream
// processes obey the flag instead of re-sampling, so a trace is always
// recorded in full or not at all.
const FlagSampled uint8 = 1 << 0

// SpanContext identifies one position in one trace: the trace it belongs
// to, the span that is currently open, and the sampling decision. It is
// what crosses process boundaries (18 bytes in the MsgTraced envelope).
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
	Flags   uint8
}

// Sampled reports whether spans under this context should be recorded.
func (sc SpanContext) Sampled() bool {
	return sc.TraceID != 0 && sc.Flags&FlagSampled != 0
}

// Attr is one span attribute: a small typed key/value recorded with the
// span (algorithm name, node-visit count, retry attempt, …).
type Attr struct {
	Key   string
	Str   string
	Int   int64
	IsStr bool
}

// Int builds an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, Int: v} }

// Str builds a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, Str: v, IsStr: true} }

// SpanRecord is one finished span as it sits in the ring: immutable once
// stored, so snapshot readers can share it without copying.
type SpanRecord struct {
	TraceID  uint64
	SpanID   uint64
	ParentID uint64 // 0 for a root span
	Name     string // snake_case (checked when the span opens)
	Proc     string // recording process ("client", "anonymizer", "lbsd")
	Start    int64  // wall clock, Unix nanoseconds (cross-process alignment)
	Dur      int64  // nanoseconds
	Attrs    []Attr
}

// Config parameterizes a Tracer.
type Config struct {
	// Process names the recording process in every span (and the Perfetto
	// process track).
	Process string
	// Ring is the span capacity of the main ring buffer (default 4096).
	Ring int
	// Sample is the root sampling rate in [0,1]. Applied only when this
	// tracer mints a root; propagated traces obey their sampled flag.
	Sample float64
	// SlowThreshold pins spans at least this slow into a separate ring
	// that main-ring churn cannot evict (0 disables slow capture).
	SlowThreshold time.Duration
	// SlowRing is the pinned-span capacity (default 512).
	SlowRing int
}

// Tracer mints, records, and exports spans for one process. All methods
// are safe for concurrent use and safe on a nil receiver (no-ops), so
// tracing can be threaded through constructors unconditionally.
type Tracer struct {
	proc        string
	sampleBound uint64 // sample iff mix64(traceID) <= sampleBound; 0 = never
	slowNanos   int64  // 0 = slow capture off

	idBase uint64
	idSeq  atomic.Uint64

	ring ring
	slow ring
}

// New builds a Tracer. A Sample of 0 still propagates incoming sampled
// traces — it only stops this process from minting new ones.
func New(cfg Config) *Tracer {
	if cfg.Ring <= 0 {
		cfg.Ring = 4096
	}
	if cfg.SlowRing <= 0 {
		cfg.SlowRing = 512
	}
	t := &Tracer{
		proc:      cfg.Process,
		slowNanos: cfg.SlowThreshold.Nanoseconds(),
		idBase:    mix64(uint64(time.Now().UnixNano())),
	}
	switch {
	case cfg.Sample >= 1:
		t.sampleBound = math.MaxUint64
	case cfg.Sample > 0:
		t.sampleBound = uint64(cfg.Sample * float64(math.MaxUint64))
	}
	t.ring.init(cfg.Ring)
	t.slow.init(cfg.SlowRing)
	return t
}

// Process returns the configured process name ("" on a nil tracer).
func (t *Tracer) Process() string {
	if t == nil {
		return ""
	}
	return t.proc
}

// nextID returns a nonzero process-unique identifier. IDs from different
// processes must not collide within one trace (parent links cross the
// wire), so the sequence is mixed with a per-tracer time-seeded base.
func (t *Tracer) nextID() uint64 {
	id := mix64(t.idBase + t.idSeq.Add(1))
	if id == 0 {
		id = 1
	}
	return id
}

// StartRoot mints a new trace and opens its root span. The sampling
// decision is taken here and here only; an unsampled root returns an
// inert span whose context reports Sampled() == false.
func (t *Tracer) StartRoot(name string) Span {
	if t == nil || t.sampleBound == 0 {
		return Span{}
	}
	traceID := t.nextID()
	if mix64(traceID) > t.sampleBound {
		return Span{}
	}
	return t.open(SpanContext{TraceID: traceID, Flags: FlagSampled}, name)
}

// StartSpan opens a child span under parent. When the parent is not
// sampled (or the tracer is nil) the span is inert and free.
func (t *Tracer) StartSpan(parent SpanContext, name string) Span {
	if t == nil || !parent.Sampled() {
		return Span{}
	}
	return t.open(parent, name)
}

// open starts a recording span. Only a recording span checks its name, so
// untraced paths pay nothing for the check.
func (t *Tracer) open(parent SpanContext, name string) Span {
	mustName(name)
	rec := &SpanRecord{
		TraceID:  parent.TraceID,
		SpanID:   t.nextID(),
		ParentID: parent.SpanID,
		Name:     name,
		Proc:     t.proc,
	}
	return Span{t: t, rec: rec, start: time.Now()}
}

// mustName panics on a span name that is not snake_case.
func mustName(name string) {
	if !obs.ValidName(name) {
		panic(fmt.Sprintf("trace: span name %q is not snake_case", name))
	}
}

// record files a finished span, pinning slow ones.
func (t *Tracer) record(rec *SpanRecord) {
	t.ring.put(rec)
	if t.slowNanos > 0 && rec.Dur >= t.slowNanos {
		t.slow.put(rec)
	}
}

// Snapshot returns every span currently held (main ring plus pinned slow
// spans, deduplicated), unordered. Safe to call while spans are being
// recorded; records are immutable.
func (t *Tracer) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	main := t.ring.snapshot()
	slow := t.slow.snapshot()
	if len(slow) == 0 {
		return main
	}
	seen := make(map[[2]uint64]struct{}, len(main))
	for i := range main {
		seen[[2]uint64{main[i].TraceID, main[i].SpanID}] = struct{}{}
	}
	for i := range slow {
		k := [2]uint64{slow[i].TraceID, slow[i].SpanID}
		if _, dup := seen[k]; !dup {
			main = append(main, slow[i])
		}
	}
	return main
}

// Span is one open span. The zero value is inert: Context() is unsampled
// and End()/SetAttrs() are free no-ops, so instrumentation never branches.
// A span opened by a Stage also carries the stage's histogram, which End
// observes whether or not the span records.
type Span struct {
	t     *Tracer
	rec   *SpanRecord
	start time.Time
	hist  *obs.Histogram
}

// Recording reports whether this span will be recorded at End.
func (s Span) Recording() bool { return s.rec != nil }

// Context returns the context to propagate to children (this span as
// parent). Inert spans return the zero context.
func (s Span) Context() SpanContext {
	if s.rec == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.rec.TraceID, SpanID: s.rec.SpanID, Flags: FlagSampled}
}

// SetAttrs attaches attributes. Call before End; later calls are lost.
func (s Span) SetAttrs(attrs ...Attr) {
	if s.rec == nil {
		return
	}
	s.rec.Attrs = append(s.rec.Attrs, attrs...)
}

// End closes the span: a stage span observes its duration in the stage's
// histogram (with the trace id as the bucket's exemplar when the span
// records), and a recording span is filed into the tracer's ring. End must
// be called at most once; the record must not be touched afterwards.
func (s Span) End() {
	if s.rec == nil {
		if s.hist != nil {
			s.hist.Since(s.start)
		}
		return
	}
	d := time.Since(s.start)
	if s.hist != nil {
		s.hist.ObserveExemplar(d.Seconds(), s.rec.TraceID)
	}
	s.rec.Start = s.start.UnixNano()
	s.rec.Dur = int64(d)
	s.t.record(s.rec)
}

// ring is a fixed-size lock-free span buffer: an atomic cursor hands out
// slots, an atomic pointer store publishes the (immutable) record. Under
// churn a snapshot may miss a slot being concurrently overwritten — the
// buffer is a best-effort flight recorder, not a log.
type ring struct {
	slots []atomic.Pointer[SpanRecord]
	cur   atomic.Uint64
}

func (r *ring) init(n int) { r.slots = make([]atomic.Pointer[SpanRecord], n) }

func (r *ring) put(rec *SpanRecord) {
	i := r.cur.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(rec)
}

func (r *ring) snapshot() []SpanRecord {
	out := make([]SpanRecord, 0, len(r.slots))
	for i := range r.slots {
		if rec := r.slots[i].Load(); rec != nil {
			out = append(out, *rec)
		}
	}
	return out
}

// mix64 is the splitmix64 finalizer: a cheap bijective mixer whose output
// is uniform enough for both ID generation and threshold sampling.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
