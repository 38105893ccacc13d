package protocol

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Handler processes one request frame and returns the response payload.
// The context carries the request's span context when the frame arrived
// inside a MsgTraced envelope (see WithTracing); handlers thread it into
// the engine so pipeline stages can record spans under the caller's trace.
type Handler func(ctx context.Context, typ byte, payload []byte) ([]byte, error)

// ErrOverloaded marks a request deliberately shed by admission control or
// backpressure — on the wire it travels as a MsgOverloaded response
// rather than msgErr. Handlers return errors wrapping it to shed typed;
// clients surface it (wrapped) from Call so callers can tell "peer is
// protecting itself, back off" from "request failed".
var ErrOverloaded = errors.New("protocol: peer overloaded")

// svcMetrics holds the protocol tier's registered obs series. The per-
// message-type series are created in the registry on a type's first
// request, so only types actually seen appear on /metrics, and the
// handles are kept: serving a request never looks a series up.
type svcMetrics struct {
	reg           *obs.Registry
	active        *obs.Gauge
	bytesOut      *obs.Counter
	dropped       *obs.Counter
	errs          *obs.Counter
	acceptRetries *obs.Counter
	rejected      *obs.Counter
	idleDrops     *obs.Counter
	frameBytes    *obs.Histogram // its _sum is the bytes read
	byType        [256]atomic.Pointer[typeSeries]
}

// typeSeries is one message type's latency histogram (whose _count is the
// requests served) and admission-rejection counter.
type typeSeries struct {
	seconds *obs.Histogram
	shed    *obs.Counter
}

func newSvcMetrics(reg *obs.Registry) *svcMetrics {
	return &svcMetrics{
		reg:           reg,
		active:        reg.Gauge("proto_active_connections", "Live TCP connections."),
		bytesOut:      reg.Counter("proto_bytes_written_total", "Frame bytes written, headers included."),
		dropped:       reg.Counter("proto_dropped_frames_total", "Connections dropped on malformed or unreadable frames."),
		errs:          reg.Counter("proto_handler_errors_total", "Requests answered with an error frame."),
		acceptRetries: reg.Counter("proto_accept_retries_total", "Transient Accept errors survived with backoff."),
		rejected:      reg.Counter("proto_conns_rejected_total", "Connections closed at accept because the max-connection cap was reached."),
		idleDrops:     reg.Counter("proto_idle_drops_total", "Connections dropped by the per-connection read/idle deadline."),
		// 16 B .. 16 MiB in ×4 steps — the frame cap is maxFrame.
		frameBytes: reg.Histogram("proto_frame_bytes",
			"Size of request frames read, headers included.", obs.ExpBuckets(16, 4, 11)),
	}
}

// series returns typ's handles, creating them on the type's first request.
func (m *svcMetrics) series(typ byte) *typeSeries {
	ts := m.byType[typ].Load()
	if ts == nil {
		// The registry is get-or-create, so racing first requests of a type
		// resolve to the same series and either store wins.
		name := MessageName(typ)
		ts = &typeSeries{
			seconds: m.reg.Histogram("proto_request_seconds", "Request service latency by message type.",
				obs.DefaultLatencyBuckets, obs.L("type", name)),
			shed: m.reg.Counter("proto_overload_rejections_total",
				"Requests rejected with MsgOverloaded by admission control, by message type.",
				obs.L("type", name)),
		}
		m.byType[typ].Store(ts)
	}
	return ts
}

// shed records one admission-control rejection, labelled by the message
// type that was refused, so dashboards can attribute every shed.
func (m *svcMetrics) shed(typ byte) { m.series(typ).shed.Inc() }

// observe records one served request. A nonzero traceID becomes the
// latency bucket's exemplar, linking the histogram to a captured trace.
func (m *svcMetrics) observe(typ byte, d time.Duration, traceID uint64) {
	m.series(typ).seconds.ObserveExemplar(d.Seconds(), traceID)
}

// Service is a generic framed request/response TCP server shared by the
// anonymizer, database and router services.
//
// Ordering contract: each connection is served by one goroutine that runs
// one handler at a time and writes replies strictly in request order. That
// is what lets a Client pipeline many calls over one connection and match
// replies to requests by position, with no request id on the wire.
// Different connections are served concurrently.
type Service struct {
	ln      net.Listener
	handler Handler
	logf    func(format string, args ...interface{})
	met     *svcMetrics   // nil when the service is not instrumented
	tracer  *trace.Tracer // nil when the service is not traced

	readTimeout  time.Duration // per-frame read/idle deadline (0 = none)
	maxConns     int           // connection cap (0 = unlimited)
	drainTimeout time.Duration // grace for in-flight frames on Close

	admMax   int          // in-flight request cap (0 = no admission control)
	admQuery int          // stricter cap for the query class
	inflight atomic.Int64 // requests currently inside the handler

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Option configures a Service.
type Option func(*Service)

// WithMetrics instruments the service: per-message-type latency
// histograms, request frame sizes, bytes out, active connections and
// dropped frames are registered as proto_* series in reg, and the service answers
// MsgMetrics requests with a snapshot of the whole registry.
func WithMetrics(reg *obs.Registry) Option {
	return func(s *Service) {
		if reg != nil {
			s.met = newSvcMetrics(reg)
		}
	}
}

// WithTracing makes the service trace-aware: it serves MsgTraces with a
// snapshot of the span ring, installs the span context of each MsgTraced
// envelope in the request context, and records a proto_serve span around
// every traced dispatch. A service without a tracer still unwraps the
// envelope and answers the inner frame, untraced.
func WithTracing(t *trace.Tracer) Option {
	return func(s *Service) { s.tracer = t }
}

// WithReadTimeout drops a connection that does not deliver its next frame
// within d — the slowloris defense and the idle-connection reaper in one
// knob. Clients reconnect transparently, so reaping idle connections is
// safe.
func WithReadTimeout(d time.Duration) Option {
	return func(s *Service) { s.readTimeout = d }
}

// WithMaxConns caps concurrent connections; connections over the cap are
// accepted and immediately closed, which peers see as a clean EOF and
// their retry/backoff path absorbs.
func WithMaxConns(n int) Option {
	return func(s *Service) { s.maxConns = n }
}

// WithAdmission bounds in-flight work: at most maxInFlight requests may
// be inside the handler at once, and requests over the budget are
// answered immediately with MsgOverloaded instead of queueing without
// bound behind a saturated engine. The budget is split by priority —
// queries are capped at half the budget so location updates (the traffic
// that keeps privacy state fresh) are never starved by a query flood,
// and the observability types (metrics, traces, stats) are always
// admitted so SLO checks can still see an overloaded daemon. Zero or
// negative disables admission control.
func WithAdmission(maxInFlight int) Option {
	return func(s *Service) {
		if maxInFlight > 0 {
			s.admMax = maxInFlight
			s.admQuery = maxInFlight / 2
			if s.admQuery < 1 {
				s.admQuery = 1
			}
		}
	}
}

// WithDrainTimeout makes Close graceful: the listener stops immediately,
// but live connections get up to d to finish in-flight frames before
// being force-closed. Zero (the default) preserves the historical
// immediate force-close.
func WithDrainTimeout(d time.Duration) Option {
	return func(s *Service) { s.drainTimeout = d }
}

// Serve starts accepting connections on addr ("host:port"; ":0" picks a
// free port) and dispatches frames to the handler. It returns immediately;
// use Addr for the bound address and Close to stop.
func Serve(addr string, handler Handler, logf func(string, ...interface{}), opts ...Option) (*Service, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return ServeListener(ln, handler, logf, opts...)
}

// ServeListener is Serve over an existing listener — the seam tests use to
// inject faulty listeners.
func ServeListener(ln net.Listener, handler Handler, logf func(string, ...interface{}), opts ...Option) (*Service, error) {
	if logf == nil {
		logf = log.Printf
	}
	s := &Service{ln: ln, handler: handler, logf: logf, conns: make(map[net.Conn]struct{})}
	for _, opt := range opts {
		opt(s)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's address.
func (s *Service) Addr() string { return s.ln.Addr().String() }

// Accept-retry backoff bounds: transient errors (EMFILE, ECONNABORTED,
// firewall hiccups) are retried with exponential backoff instead of
// killing the listener; only a closed listener ends the loop.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = 1 * time.Second
)

func (s *Service) acceptLoop() {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return
			}
			if backoff == 0 {
				backoff = acceptBackoffMin
			} else if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			if s.met != nil {
				s.met.acceptRetries.Inc()
			}
			s.logf("protocol: transient accept error (retrying in %v): %v", backoff, err)
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if s.maxConns > 0 && len(s.conns) >= s.maxConns {
			s.mu.Unlock()
			conn.Close()
			if s.met != nil {
				s.met.rejected.Inc()
			}
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Service) serveConn(conn net.Conn) {
	defer s.wg.Done()
	if s.met != nil {
		s.met.active.Inc()
	}
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		if s.met != nil {
			s.met.active.Dec()
		}
	}()
	// Requests are read and replies written through buffers, and replies
	// are flushed before any read that can block: a peer that pipelines k
	// requests costs about one read and one write instead of 3k system
	// calls, and a peer that waits for each reply still gets it at once.
	//
	// The read buffer is reused across frames (ReadFrameBuf): the request
	// payload is handled fully — dispatch and the response write — before
	// the next read, and no handler retains a payload view past its
	// return (codec.Decoder numeric reads and Str copy out), so the reuse is
	// invisible to handlers. The no-alias stress test and FuzzReadFrame
	// pin this contract.
	br := bufio.NewReaderSize(conn, connBufSize)
	bw := bufio.NewWriterSize(conn, connBufSize)
	var rbuf []byte
	for {
		if !frameBuffered(br) {
			if bw.Flush() != nil {
				return
			}
			if s.readTimeout > 0 {
				conn.SetReadDeadline(time.Now().Add(s.readTimeout))
			}
		}
		typ, payload, nbuf, err := ReadFrameBuf(br, rbuf)
		rbuf = nbuf
		if err != nil {
			// EOF or broken peer: drop the connection. A clean close reads
			// io.EOF at a frame boundary; anything else is a dropped frame,
			// with deadline expiries counted separately as idle drops.
			if s.met != nil && !errors.Is(err, io.EOF) {
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					s.met.idleDrops.Inc()
				} else {
					s.met.dropped.Inc()
				}
			}
			return
		}
		if s.serveFrame(bw, typ, payload) != nil {
			return
		}
	}
}

// serveFrame answers one request frame into bw: dispatch, per-type
// metrics, and the OK, error or overload reply. An error means the
// connection is unwritable.
func (s *Service) serveFrame(bw *bufio.Writer, typ byte, payload []byte) error {
	var t0 time.Time
	if s.met != nil {
		s.met.frameBytes.Observe(float64(5 + len(payload)))
		t0 = time.Now()
	}
	resp, obsTyp, traceID, herr := s.dispatch(typ, payload)
	if s.met != nil {
		s.met.observe(obsTyp, time.Since(t0), traceID)
	}
	respType := msgOK
	if herr != nil {
		// A deliberate shed travels as MsgOverloaded, not msgErr, and is
		// counted as a rejection rather than a handler failure.
		respType = msgErr
		if errors.Is(herr, ErrOverloaded) {
			respType = MsgOverloaded
			if s.met != nil {
				s.met.shed(obsTyp)
			}
		} else if s.met != nil {
			s.met.errs.Inc()
		}
		var e codec.Encoder
		e.Str(herr.Error())
		resp = e.Bytes()
	}
	if s.met != nil {
		s.met.bytesOut.Add(uint64(5 + len(resp)))
	}
	return WriteFrame(bw, respType, resp)
}

// dispatch answers one request frame: the Service-layer message types
// (metrics snapshot, trace ring pull) directly, and everything else
// through the handler. A MsgTraced envelope is unwrapped here — on a
// traced service the inner frame is dispatched with the caller's span
// context in the request context and a proto_serve span around the
// exchange — and obsTyp names the frame the per-type metrics should
// attribute the work to (the inner type for envelopes).
func (s *Service) dispatch(typ byte, payload []byte) (resp []byte, obsTyp byte, traceID uint64, err error) {
	ctx := context.Background()
	obsTyp = typ
	switch {
	case typ == MsgTraces && s.tracer != nil:
		return encodeSpans(s.tracer.Snapshot()), obsTyp, 0, nil
	case typ == MsgTraced:
		sc, innerTyp, inner, derr := decodeTraced(payload)
		if derr != nil {
			return nil, obsTyp, 0, derr
		}
		obsTyp, payload = innerTyp, inner
		if sc.Sampled() && s.tracer != nil {
			traceID = sc.TraceID
			sp := s.tracer.StartSpan(sc, "proto_serve")
			sp.SetAttrs(trace.Str("type", MessageName(innerTyp)))
			defer sp.End()
			ctx = trace.NewContext(ctx, sp.Context())
		}
	}
	if obsTyp == MsgMetrics && s.met != nil {
		// The metrics snapshot is served by the Service layer itself, so
		// any instrumented service answers it without the per-service
		// handlers knowing about it.
		return encodeMetrics(s.met.reg.Export()), obsTyp, traceID, nil
	}
	if s.admMax > 0 {
		if cls := admissionClass(obsTyp); cls != admitAlways {
			limit := s.admMax
			if cls == admitQuery {
				limit = s.admQuery
			}
			if n := s.inflight.Add(1); int(n) > limit {
				s.inflight.Add(-1)
				if s.tracer != nil {
					if sc, ok := trace.FromContext(ctx); ok {
						sp := s.tracer.StartSpan(sc, "proto_shed")
						sp.SetAttrs(trace.Str("type", MessageName(obsTyp)))
						sp.End()
					}
				}
				return nil, obsTyp, traceID, fmt.Errorf(
					"%w: %s rejected at %d requests in flight", ErrOverloaded, MessageName(obsTyp), limit)
			}
			defer s.inflight.Add(-1)
		}
	}
	resp, err = s.handler(ctx, obsTyp, payload)
	return resp, obsTyp, traceID, err
}

// Close stops the service. The listener closes immediately; with a drain
// timeout configured, live connections get that long to finish in-flight
// frames (their next read fails at the drain deadline) before any
// stragglers are force-closed.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	drain := s.drainTimeout
	if drain > 0 {
		deadline := time.Now().Add(drain)
		for c := range s.conns {
			c.SetReadDeadline(deadline)
		}
		s.mu.Unlock()
		done := make(chan struct{})
		go func() {
			s.wg.Wait()
			close(done)
		}()
		select {
		case <-done:
			return err
		case <-time.After(drain + 50*time.Millisecond):
		}
		s.mu.Lock()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}
