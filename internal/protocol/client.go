package protocol

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Circuit-breaker states, also the values of the proto_breaker_state gauge.
const (
	breakerClosed = iota
	breakerHalfOpen
	breakerOpen
)

// ErrBreakerOpen is returned without touching the network while the
// client's circuit breaker is open: the peer failed repeatedly and the
// cooldown has not elapsed, so the call is shed immediately instead of
// burning a connect timeout per request.
var ErrBreakerOpen = errors.New("protocol: circuit breaker open")

// dialConfig is the resolved client configuration.
type dialConfig struct {
	callTimeout      time.Duration
	retries          int
	backoffBase      time.Duration
	backoffMax       time.Duration
	breakerThreshold int
	breakerCooldown  time.Duration
	lazy             bool
	seed             uint64
	dial             func(addr string) (net.Conn, error)
	reg              *obs.Registry
	tracer           *trace.Tracer
}

// DefaultCallTimeout bounds every call of a client dialed without
// WithCallTimeout, and the dial itself: a wedged peer fails the call
// instead of holding it forever.
const DefaultCallTimeout = 30 * time.Second

func defaultDialConfig() dialConfig {
	return dialConfig{
		callTimeout:      DefaultCallTimeout,
		retries:          2,
		backoffBase:      20 * time.Millisecond,
		backoffMax:       1 * time.Second,
		breakerThreshold: 8,
		breakerCooldown:  1 * time.Second,
		seed:             1,
	}
}

// DialOption configures a Client.
type DialOption func(*dialConfig)

// WithCallTimeout bounds every request round trip (write + read) and
// every dial. d ≤ 0 keeps DefaultCallTimeout: no client is without a
// deadline. A context deadline on CallCtx tightens it further.
func WithCallTimeout(d time.Duration) DialOption {
	return func(c *dialConfig) {
		if d > 0 {
			c.callTimeout = d
		}
	}
}

// WithRetries sets how many times an idempotent call is retried after a
// transport failure (0 disables retries; the default is 2).
func WithRetries(n int) DialOption {
	return func(c *dialConfig) { c.retries = n }
}

// WithRetryBackoff sets the exponential reconnect backoff: the nth retry
// waits base·2ⁿ⁻¹ (capped at max) with ±50% deterministic jitter.
func WithRetryBackoff(base, max time.Duration) DialOption {
	return func(c *dialConfig) { c.backoffBase, c.backoffMax = base, max }
}

// WithBreaker configures the circuit breaker: threshold consecutive
// transport failures open it, cooldown later it half-opens and admits one
// probe. threshold ≤ 0 disables the breaker.
func WithBreaker(threshold int, cooldown time.Duration) DialOption {
	return func(c *dialConfig) { c.breakerThreshold, c.breakerCooldown = threshold, cooldown }
}

// WithLazyDial makes Dial succeed even when the peer is down; the first
// Call connects (or fails). Daemons use it so a dependency being briefly
// away at startup is survivable instead of fatal.
func WithLazyDial() DialOption {
	return func(c *dialConfig) { c.lazy = true }
}

// WithDialer substitutes the transport constructor — the hook fault
// injection uses to hand the client doomed connections.
func WithDialer(dial func(addr string) (net.Conn, error)) DialOption {
	return func(c *dialConfig) { c.dial = dial }
}

// WithClientMetrics registers the client's proto_* series (retries,
// timeouts, reconnects, breaker state) in reg.
func WithClientMetrics(reg *obs.Registry) DialOption {
	return func(c *dialConfig) {
		if reg != nil {
			c.reg = reg
		}
	}
}

// WithClientTracing enables distributed tracing on the client: a trace is
// adopted from the call context (or minted here, at the edge, subject to
// the tracer's sampling rate), call/retry/backoff spans are recorded in
// the tracer's ring, and every request whose span is recording goes out
// wrapped in the MsgTraced envelope, so the trace continues across the
// wire. Every Service unwraps the envelope, traced or not.
func WithClientTracing(t *trace.Tracer) DialOption {
	return func(c *dialConfig) { c.tracer = t }
}

// WithJitterSeed seeds the backoff jitter stream, making retry schedules
// reproducible in tests.
func WithJitterSeed(seed uint64) DialOption {
	return func(c *dialConfig) { c.seed = seed }
}

// clientMetrics holds the client side's registered obs series.
type clientMetrics struct {
	retries      *obs.Counter
	timeouts     *obs.Counter
	reconnects   *obs.Counter
	breakerState *obs.Gauge
	breakerOpens *obs.Counter
	shed         *obs.Counter
	overloaded   *obs.Counter
}

func newClientMetrics(reg *obs.Registry) *clientMetrics {
	return &clientMetrics{
		retries:      reg.Counter("proto_retries_total", "Idempotent calls retried after a transport failure."),
		timeouts:     reg.Counter("proto_call_timeouts_total", "Calls that hit the per-call deadline."),
		reconnects:   reg.Counter("proto_reconnects_total", "Connections re-established after a drop."),
		breakerState: reg.Gauge("proto_breaker_state", "Circuit breaker state: 0 closed, 1 half-open, 2 open."),
		breakerOpens: reg.Counter("proto_breaker_opens_total", "Transitions of the circuit breaker to open."),
		shed:         reg.Counter("proto_breaker_rejected_total", "Calls shed immediately while the breaker was open."),
		overloaded:   reg.Counter("proto_overloaded_total", "Calls answered MsgOverloaded by the peer's admission control."),
	}
}

// Client is a framed request/response TCP client, safe for concurrent
// use. Concurrent calls are pipelined over one connection: the peer
// answers a connection's frames strictly in request order (see
// Service), so the client keeps a FIFO of the calls in flight and matches
// replies to them by position — the wire carries no request id. A call
// appends its frame to the connection's write buffer; one caller at a
// time flushes whatever has accumulated in a single Write, and one caller
// at a time reads replies through a buffered reader, handing each frame
// to the call at the head of the FIFO. A call alone on the connection
// therefore costs one write and one read.
//
// A transport failure or an expired deadline fails the connection, and
// with it every call in flight on it, exactly once: idempotent calls
// reconnect with exponential backoff and jitter and retry a bounded
// number of times, each on its own schedule and never under the client's
// lock; non-idempotent calls return the error and are never re-sent. The
// circuit breaker counts one failure per dead connection or failed dial
// and sheds load while the peer stays down.
type Client struct {
	addr string
	cfg  dialConfig
	met  *clientMetrics

	// mu guards everything below and every clientConn's queue state. It
	// is held across a dial — callers without a connection have nothing
	// else to do — but never across a call's I/O or a backoff sleep.
	mu        sync.Mutex
	cn        *clientConn // nil while disconnected
	src       *rng.Source
	connected bool // a connection existed before (distinguishes reconnects)
	fails     int  // consecutive transport failures
	state     int
	openUntil time.Time
}

// clientConn is one connection and the calls in flight on it. conn and br
// are used outside Client.mu, by the caller holding the matching role
// flag: at most one goroutine is inside conn.Write (flushing) and one
// inside a read of br (reading) at any time, and successive holders are
// ordered by the lock the flags change under.
type clientConn struct {
	conn net.Conn
	br   *bufio.Reader

	head, tail *call     // calls awaiting replies, oldest first
	wbuf       []byte    // frames enqueued and not yet taken by a flusher
	wspare     []byte    // the flusher's previous buffer, for reuse
	flushing   bool      // a caller holds the write role
	reading    bool      // a caller holds the read role
	deadline   time.Time // deadline currently set on conn (zero = none)
	err        error     // why the connection was dropped; set once
}

// call is one request's slot in its connection's FIFO. Records are pooled
// together with their wake channel, so a call in flight allocates nothing.
type call struct {
	next     *call
	deadline time.Time
	// wake (capacity 1) tells a parked caller to look again: its reply
	// arrived, its connection was dropped, or the read role is free. The
	// state under Client.mu is the truth; a spare token is harmless.
	wake   chan struct{}
	parked bool // the caller is waiting on wake
	done   bool
	rtyp   byte
	resp   []byte
	err    error
}

var callPool = sync.Pool{New: func() interface{} { return &call{wake: make(chan struct{}, 1)} }}

func (cl *call) wakeUp() {
	select {
	case cl.wake <- struct{}{}:
	default:
	}
}

// Errors a retry cannot cure. errClientClosed fails the calls in flight
// when Close is called, so a closed client does not dial again on their
// behalf.
var (
	errClientClosed  = errors.New("protocol: client closed")
	errFrameTooLarge = errors.New("protocol: frame too large")
)

// Dial connects to a Service with default fault tolerance (2 retries for
// idempotent calls, breaker at 8 consecutive failures). It fails fast when
// the peer is unreachable; see WithLazyDial.
func Dial(addr string, opts ...DialOption) (*Client, error) {
	cfg := defaultDialConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.reg == nil {
		cfg.reg = obs.NewRegistry()
	}
	c := &Client{
		addr: addr,
		cfg:  cfg,
		met:  newClientMetrics(cfg.reg),
		src:  rng.New(cfg.seed),
	}
	if !cfg.lazy {
		c.mu.Lock()
		_, err := c.connectLocked()
		c.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	return c, nil
}

// connectLocked establishes and publishes a fresh connection; c.mu must
// be held and c.cn nil.
func (c *Client) connectLocked() (*clientConn, error) {
	dial := c.cfg.dial
	if dial == nil {
		dial = func(addr string) (net.Conn, error) { return net.DialTimeout("tcp", addr, c.cfg.callTimeout) }
	}
	conn, err := dial(c.addr)
	if err != nil {
		return nil, err
	}
	cn := &clientConn{conn: conn, br: bufio.NewReaderSize(conn, connBufSize)}
	if c.connected {
		c.met.reconnects.Inc()
	}
	c.connected = true
	c.cn = cn
	return cn, nil
}

// dropLocked takes cn out of service — its stream state is unknown or
// its owner is done with it — and completes every call in flight on it
// with err. It returns the connection's Close error.
func (c *Client) dropLocked(cn *clientConn, err error) error {
	cn.err = err
	if c.cn == cn {
		c.cn = nil
	}
	for h := cn.head; h != nil; {
		next := h.next
		h.next, h.err, h.done = nil, err, true
		h.wakeUp()
		h = next
	}
	cn.head, cn.tail = nil, nil
	return cn.conn.Close()
}

// failLocked records a transport failure on cn: the first report drops
// the connection and counts once against the breaker, however many calls
// were in flight; later reports of the same dead connection are no-ops.
func (c *Client) failLocked(cn *clientConn, err error) {
	if cn.err != nil {
		return
	}
	c.dropLocked(cn, c.classify(err))
	c.breakerFailLocked()
}

func (c *Client) setStateLocked(state int) {
	if c.state == state {
		return
	}
	c.state = state
	c.met.breakerState.Set(float64(state))
	if state == breakerOpen {
		c.met.breakerOpens.Inc()
	}
}

// breakerAdmitLocked gates a dial on the breaker state. The breaker only
// opens on a failure, and a failure leaves the client disconnected, so
// gating dials gates every call made while it is open.
func (c *Client) breakerAdmitLocked() error {
	if c.cfg.breakerThreshold <= 0 {
		return nil
	}
	if c.state == breakerOpen {
		if time.Now().Before(c.openUntil) {
			c.met.shed.Inc()
			return ErrBreakerOpen
		}
		c.setStateLocked(breakerHalfOpen) // cooldown over: admit a probe
	}
	return nil
}

// breakerFailLocked records a transport failure.
func (c *Client) breakerFailLocked() {
	if c.cfg.breakerThreshold <= 0 {
		return
	}
	c.fails++
	if c.state == breakerHalfOpen || c.fails >= c.cfg.breakerThreshold {
		c.setStateLocked(breakerOpen)
		c.openUntil = time.Now().Add(c.cfg.breakerCooldown)
	}
}

func (c *Client) breakerSuccessLocked() {
	c.fails = 0
	c.setStateLocked(breakerClosed)
}

// sleepBackoff waits base·2ⁿ⁻¹ (capped) with ±50% jitter before retry n,
// respecting context cancellation. Only the jitter draw takes the lock:
// other callers of a shared client dial and proceed while this one waits.
func (c *Client) sleepBackoff(ctx context.Context, n int) error {
	d := c.cfg.backoffBase << (n - 1)
	if d > c.cfg.backoffMax || d <= 0 {
		d = c.cfg.backoffMax
	}
	// Jitter in [d/2, 3d/2): desynchronizes retry storms across clients.
	c.mu.Lock()
	jitter := c.src.Float64()
	c.mu.Unlock()
	d = d/2 + time.Duration(jitter*float64(d))
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// ErrRemote wraps an error string returned by the peer.
var ErrRemote = errors.New("protocol: remote error")

// Call sends one request and waits for its response payload, at most the
// client's call timeout.
func (c *Client) Call(typ byte, payload []byte) ([]byte, error) {
	return c.CallCtx(context.Background(), typ, payload)
}

// exchange performs one call and returns a Decoder over the reply. A
// failed call comes back as a Decoder whose sticky error is the failure,
// so a typed stub decodes unconditionally and reports Err once: every
// read of a failed reply yields zero values.
func (c *Client) exchange(ctx context.Context, typ byte, payload []byte) codec.Decoder {
	resp, err := c.CallCtx(ctx, typ, payload)
	return codec.MakeDecoder(resp, err)
}

// CallCtx sends one request under a context. The effective deadline is the
// tighter of the context's and the configured per-call timeout. Transport
// failures on idempotent message types — this call's own, or another
// call's that took the shared connection down while this one was in
// flight — are retried (reconnecting as needed) up to the configured
// budget; remote handler errors are returned as-is and never retried.
//
// Only the traced path allocates here, for its context values; an
// untraced call allocates nothing.
func (c *Client) CallCtx(ctx context.Context, typ byte, payload []byte) ([]byte, error) {
	// Tracing: adopt the caller's trace from ctx, or — this being the edge
	// — mint a fresh root here, subject to the tracer's sampling rate. The
	// span-ring pull itself is never traced.
	if c.cfg.tracer != nil && typ != MsgTraces {
		if _, ok := trace.FromContext(ctx); !ok {
			root := c.cfg.tracer.StartRoot("proto_request")
			if root.Recording() {
				root.SetAttrs(trace.Str("type", MessageName(typ)))
				ctx = trace.NewContext(ctx, root.Context())
				defer root.End()
			}
		}
	}
	attempts := 1
	if Idempotent(typ) {
		attempts += c.cfg.retries
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if attempt > 0 {
			c.met.retries.Inc()
			bsp, _ := trace.Start(ctx, c.cfg.tracer, "proto_backoff")
			bsp.SetAttrs(trace.Int("attempt", int64(attempt)))
			err := c.sleepBackoff(ctx, attempt)
			bsp.End()
			if err != nil {
				return nil, err
			}
		}
		resp, err := c.callOnce(ctx, typ, payload, attempt)
		if err == nil || errors.Is(err, ErrRemote) || errors.Is(err, ErrOverloaded) {
			// The wire worked end to end; whatever the handler said is the
			// answer. An overload rejection is the peer protecting itself,
			// not a transport failure — retrying immediately would feed the
			// very overload that shed us, so it surfaces to the caller.
			return resp, err
		}
		lastErr = err
		if errors.Is(err, errClientClosed) || errors.Is(err, errFrameTooLarge) || c.BreakerState() == breakerOpen {
			break // a retry cannot help, or the peer is down: shed instead of burning the budget
		}
	}
	return nil, lastErr
}

// callOnce performs one request/response exchange on the current
// connection, establishing it first if needed. When the call is traced,
// the frame goes out wrapped in the MsgTraced envelope with this
// attempt's span as the remote parent.
//
// The call record is pooled, so on the success path the reply payload
// (ReadFrame) is a call's only allocation.
func (c *Client) callOnce(ctx context.Context, typ byte, payload []byte, attempt int) ([]byte, error) {
	sp, _ := trace.Start(ctx, c.cfg.tracer, "proto_call")
	if sp.Recording() {
		sp.SetAttrs(trace.Str("type", MessageName(typ)), trace.Int("attempt", int64(attempt)))
		defer sp.End()
	}
	deadline := time.Now().Add(c.cfg.callTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}

	c.mu.Lock()
	cn := c.cn
	if cn == nil {
		err := c.breakerAdmitLocked()
		if err == nil {
			if cn, err = c.connectLocked(); err != nil {
				c.breakerFailLocked()
			}
		}
		if err != nil {
			c.mu.Unlock()
			return nil, err
		}
	}
	wireTyp, wirePayload := typ, payload
	if sp.Recording() && typ != MsgTraces {
		wireTyp, wirePayload = MsgTraced, encodeTraced(sp.Context(), typ, payload)
	}
	if len(wirePayload)+1 > maxFrame {
		c.mu.Unlock()
		return nil, errFrameTooLarge
	}
	// Enqueue: the frame joins the write buffer and the call the FIFO in
	// one critical section, so replies match requests by position.
	me := callPool.Get().(*call)
	me.deadline = deadline
	cn.wbuf = appendFrame(cn.wbuf, wireTyp, wirePayload)
	if cn.head == nil {
		cn.head = me
		c.armLocked(cn, me.deadline)
	} else {
		cn.tail.next = me
		if me.deadline.Before(cn.deadline) {
			c.armLocked(cn, me.deadline)
		}
	}
	cn.tail = me
	// Flush, unless a caller already inside Write will pick the frame up
	// when its Write returns. The lock is held again when the loop ends.
	if !cn.flushing {
		cn.flushing = true
		for len(cn.wbuf) > 0 && cn.err == nil {
			buf := cn.wbuf
			cn.wbuf, cn.wspare = cn.wspare[:0], nil
			c.mu.Unlock()
			_, err := cn.conn.Write(buf)
			c.mu.Lock()
			if cap(buf) <= maxPooledBuf {
				cn.wspare = buf
			}
			if err != nil {
				c.failLocked(cn, err)
			}
		}
		cn.flushing = false
	}
	// Wait for the reply, taking the read role whenever it is free.
	for !me.done {
		if cn.reading {
			me.parked = true
			c.mu.Unlock()
			<-me.wake
			c.mu.Lock()
			me.parked = false
			continue
		}
		cn.reading = true
		c.readLocked(cn, me)
		cn.reading = false
		// Pass the read role on, to a caller that is free to take it: the
		// head of the FIFO may be the flusher, inside a Write that cannot
		// finish until somebody reads.
		for h := cn.head; h != nil; h = h.next {
			if h.parked {
				h.wakeUp()
				break
			}
		}
	}
	rtyp, resp, err := me.rtyp, me.resp, me.err
	*me = call{wake: me.wake}
	callPool.Put(me)
	if err == nil {
		switch rtyp {
		case msgOK:
		case msgErr, MsgOverloaded:
			err = remoteError(rtyp, resp)
			if rtyp == MsgOverloaded {
				c.met.overloaded.Inc()
			}
		default:
			// Protocol violation: the stream is desynchronized, treat as a
			// transport failure so the connection is torn down and retried.
			err = fmt.Errorf("protocol: unexpected response type %d", rtyp)
			c.failLocked(cn, err)
		}
	}
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// remoteError decodes the message of an error or overload reply.
func remoteError(rtyp byte, resp []byte) error {
	msg := codec.NewDecoder(resp).Str()
	if rtyp == MsgOverloaded {
		return fmt.Errorf("%w: %s", ErrOverloaded, msg)
	}
	return fmt.Errorf("%w: %s", ErrRemote, msg)
}

// armLocked sets conn's deadline, skipping the call when it is unchanged.
func (c *Client) armLocked(cn *clientConn, d time.Time) {
	if !d.Equal(cn.deadline) {
		cn.deadline = d
		cn.conn.SetDeadline(d)
	}
}

// readLocked reads replies on behalf of every call in flight, until me is
// done and no whole frame is left in the buffer. Each frame belongs to the
// call at the head of the FIFO. The caller holds c.mu and the read role;
// the lock is released around each read. Before a read that can block,
// the connection's deadline is brought to the earliest deadline among the
// calls in flight, which is what lets parked callers wait without timers
// of their own.
func (c *Client) readLocked(cn *clientConn, me *call) {
	for cn.err == nil && cn.head != nil {
		buffered := frameBuffered(cn.br)
		if me.done && !buffered {
			return
		}
		if !buffered {
			earliest := cn.head.deadline
			for h := cn.head.next; h != nil; h = h.next {
				if h.deadline.Before(earliest) {
					earliest = h.deadline
				}
			}
			c.armLocked(cn, earliest)
		}
		c.mu.Unlock()
		rtyp, resp, err := ReadFrame(cn.br)
		c.mu.Lock()
		if err != nil {
			c.failLocked(cn, err)
			return
		}
		h := cn.head
		if h == nil { // dropped while we read
			return
		}
		if cn.head = h.next; cn.head == nil {
			cn.tail = nil
		}
		h.next, h.rtyp, h.resp, h.done = nil, rtyp, resp, true
		c.breakerSuccessLocked()
		if h != me {
			h.wakeUp()
		}
	}
}

// classify counts deadline hits before passing the error through.
func (c *Client) classify(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		c.met.timeouts.Inc()
	}
	return err
}

// BreakerState returns the current circuit-breaker state as the
// proto_breaker_state gauge encodes it: 0 closed, 1 half-open, 2 open.
func (c *Client) BreakerState() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Close closes the connection; calls in flight on it fail and are not
// retried.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cn == nil {
		return nil
	}
	return c.dropLocked(c.cn, errClientClosed)
}
