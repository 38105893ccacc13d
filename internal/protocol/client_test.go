package protocol

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/anonymizer"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/privacy"
	"repro/internal/server"
)

// startEcho serves an echo handler and tears it down with the test.
func startEcho(t *testing.T, opts ...Option) *Service {
	t.Helper()
	svc, err := Serve("127.0.0.1:0", func(_ context.Context, typ byte, p []byte) ([]byte, error) {
		return p, nil
	}, quiet, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

// fastRetry keeps the test-time retry schedule tight and deterministic.
func fastRetry() []DialOption {
	return []DialOption{
		WithRetryBackoff(time.Millisecond, 10*time.Millisecond),
		WithJitterSeed(7),
	}
}

// poll waits until cond holds or the deadline passes.
func poll(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", msg)
}

// A connection reset mid-frame on an idempotent call is absorbed: the
// client reconnects and retries, and the caller never sees the fault.
func TestClientRetriesAfterMidFrameReset(t *testing.T) {
	svc := startEcho(t)
	reg := obs.NewRegistry()
	// Connection 1 dies writing its second frame; connection 2 is clean.
	dial := faults.Dialer(func(conn int) []faults.Rule {
		if conn == 1 {
			return []faults.Rule{{Op: faults.Write, Nth: 2, Action: faults.Reset}}
		}
		return nil
	})
	opts := append(fastRetry(), WithDialer(dial), WithRetries(2), WithClientMetrics(reg))
	c, err := Dial(svc.Addr(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Call(MsgUpdate, []byte("one")); err != nil {
		t.Fatalf("clean first call failed: %v", err)
	}
	resp, err := c.Call(MsgUpdate, []byte("two"))
	if err != nil {
		t.Fatalf("call not retried through the reset: %v", err)
	}
	if string(resp) != "two" {
		t.Fatalf("resp = %q, want %q", resp, "two")
	}
	if got := seriesValue(reg, "proto_retries_total"); got == 0 {
		t.Error("proto_retries_total = 0, want > 0")
	}
	if got := seriesValue(reg, "proto_reconnects_total"); got == 0 {
		t.Error("proto_reconnects_total = 0, want > 0")
	}
}

// seriesValue reads a counter or gauge of reg without registering it
// (0 when the series does not exist yet).
func seriesValue(reg *obs.Registry, name string) float64 {
	s, _ := reg.Find(name)
	return s.Value
}

// A full server restart between calls is survived transparently by the
// retry + reconnect path.
func TestClientReconnectsAfterServerRestart(t *testing.T) {
	svc, err := Serve("127.0.0.1:0", func(_ context.Context, typ byte, p []byte) ([]byte, error) {
		return p, nil
	}, quiet)
	if err != nil {
		t.Fatal(err)
	}
	addr := svc.Addr()

	opts := append(fastRetry(), WithRetries(3))
	c, err := Dial(addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(MsgUpdate, []byte("before")); err != nil {
		t.Fatal(err)
	}

	svc.Close()
	svc2, err := Serve(addr, func(_ context.Context, typ byte, p []byte) ([]byte, error) {
		return p, nil
	}, quiet)
	if err != nil {
		t.Fatalf("cannot rebind %s: %v", addr, err)
	}
	defer svc2.Close()

	resp, err := c.Call(MsgUpdate, []byte("after"))
	if err != nil {
		t.Fatalf("call across restart failed: %v", err)
	}
	if string(resp) != "after" {
		t.Fatalf("resp = %q, want %q", resp, "after")
	}
}

// The breaker opens after the threshold of consecutive transport failures,
// sheds calls without touching the network, then half-opens after the
// cooldown and closes again on a successful probe.
func TestBreakerOpensShedsAndRecovers(t *testing.T) {
	// Reserve an address with nothing listening on it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	reg := obs.NewRegistry()
	opts := append(fastRetry(),
		WithLazyDial(), WithRetries(0),
		WithBreaker(3, 150*time.Millisecond),
		WithClientMetrics(reg))
	c, err := Dial(addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 3; i++ {
		if _, err := c.Call(MsgStats, nil); err == nil {
			t.Fatalf("call %d to a dead address succeeded", i)
		}
	}
	if got := c.BreakerState(); got != breakerOpen {
		t.Fatalf("BreakerState = %d after %d failures, want open (%d)", got, 3, breakerOpen)
	}
	if got := seriesValue(reg, "proto_breaker_state"); got != float64(breakerOpen) {
		t.Fatalf("proto_breaker_state = %v, want %d", got, breakerOpen)
	}

	// While open, calls are shed immediately with ErrBreakerOpen.
	if _, err := c.Call(MsgStats, nil); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker returned %v, want ErrBreakerOpen", err)
	}
	if got := seriesValue(reg, "proto_breaker_rejected_total"); got == 0 {
		t.Error("proto_breaker_rejected_total = 0, want > 0")
	}

	// Bring the peer up and let the cooldown pass: the half-open probe
	// closes the breaker again.
	svc, err := Serve(addr, func(_ context.Context, typ byte, p []byte) ([]byte, error) {
		return p, nil
	}, quiet)
	if err != nil {
		t.Fatalf("cannot bind %s: %v", addr, err)
	}
	defer svc.Close()
	time.Sleep(200 * time.Millisecond)

	resp, err := c.Call(MsgStats, []byte("probe"))
	if err != nil {
		t.Fatalf("probe after cooldown failed: %v", err)
	}
	if string(resp) != "probe" {
		t.Fatalf("resp = %q", resp)
	}
	if got := c.BreakerState(); got != breakerClosed {
		t.Fatalf("BreakerState = %d after recovery, want closed", got)
	}
	if got := seriesValue(reg, "proto_breaker_opens_total"); got == 0 {
		t.Error("proto_breaker_opens_total = 0, want > 0")
	}
}

// A failed half-open probe re-opens the breaker immediately instead of
// resetting the failure count.
func TestBreakerReopensOnFailedProbe(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	opts := append(fastRetry(), WithLazyDial(), WithRetries(0), WithBreaker(2, 50*time.Millisecond))
	c, err := Dial(addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Call(MsgStats, nil)
	c.Call(MsgStats, nil)
	if got := c.BreakerState(); got != breakerOpen {
		t.Fatalf("BreakerState = %d, want open", got)
	}
	time.Sleep(80 * time.Millisecond)
	// Peer still down: the single admitted probe fails and re-opens.
	if _, err := c.Call(MsgStats, nil); err == nil {
		t.Fatal("probe to a dead address succeeded")
	}
	if got := c.BreakerState(); got != breakerOpen {
		t.Fatalf("BreakerState = %d after failed probe, want open", got)
	}
}

// The per-call deadline bounds a stalled handler; the timeout is counted.
func TestCallTimeoutBoundsStalledHandler(t *testing.T) {
	svc, err := Serve("127.0.0.1:0", func(_ context.Context, typ byte, p []byte) ([]byte, error) {
		time.Sleep(400 * time.Millisecond)
		return p, nil
	}, quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	reg := obs.NewRegistry()
	c, err := Dial(svc.Addr(), WithCallTimeout(40*time.Millisecond), WithRetries(0), WithClientMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	_, err = c.Call(MsgStats, nil)
	if err == nil {
		t.Fatal("stalled call returned without error")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("error %v is not a timeout", err)
	}
	if el := time.Since(start); el > 300*time.Millisecond {
		t.Fatalf("deadline did not bound the call: took %v", el)
	}
	if got := seriesValue(reg, "proto_call_timeouts_total"); got != 1 {
		t.Fatalf("proto_call_timeouts_total = %v, want 1", got)
	}
}

// deadlineConn records every deadline set on the connection it wraps.
type deadlineConn struct {
	net.Conn
	set chan time.Time
}

func (c *deadlineConn) SetDeadline(d time.Time) error {
	select {
	case c.set <- d:
	default:
	}
	return c.Conn.SetDeadline(d)
}

// A client dialed without WithCallTimeout, or with a zero one, still
// bounds its calls: the first call arms DefaultCallTimeout on the
// connection.
func TestCallDeadlineByDefault(t *testing.T) {
	svc := startEcho(t)
	for name, opts := range map[string][]DialOption{
		"no option": nil,
		"zero":      {WithCallTimeout(0)},
		"negative":  {WithCallTimeout(-time.Second)},
	} {
		t.Run(name, func(t *testing.T) {
			set := make(chan time.Time, 1)
			dial := func(addr string) (net.Conn, error) {
				conn, err := net.Dial("tcp", addr)
				return &deadlineConn{Conn: conn, set: set}, err
			}
			c, err := Dial(svc.Addr(), append(opts, WithDialer(dial))...)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			want := time.Now().Add(DefaultCallTimeout)
			if _, err := c.Call(1, []byte("x")); err != nil {
				t.Fatal(err)
			}
			select {
			case got := <-set:
				if d := got.Sub(want); d < -time.Second || d > time.Second {
					t.Fatalf("first call armed %v, want within 1s of now+%v (off by %v)", got, DefaultCallTimeout, d)
				}
			default:
				t.Fatal("the first call armed no deadline")
			}
		})
	}
}

// A context deadline tighter than the call timeout wins.
func TestCallCtxRespectsContext(t *testing.T) {
	svc, err := Serve("127.0.0.1:0", func(_ context.Context, typ byte, p []byte) ([]byte, error) {
		time.Sleep(400 * time.Millisecond)
		return p, nil
	}, quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	c, err := Dial(svc.Addr(), WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.CallCtx(ctx, MsgStats, nil); err == nil {
		t.Fatal("call outlived its context")
	}
	if el := time.Since(start); el > 300*time.Millisecond {
		t.Fatalf("context deadline ignored: took %v", el)
	}
}

// Non-idempotent message types are never retried: a transport failure
// surfaces on the first attempt so the caller decides.
func TestNonIdempotentCallsNotRetried(t *testing.T) {
	svc := startEcho(t)
	reg := obs.NewRegistry()
	// Every connection dies on its first written frame.
	dial := faults.Dialer(func(conn int) []faults.Rule {
		return []faults.Rule{{Op: faults.Write, Nth: 1, Action: faults.Drop}}
	})
	opts := append(fastRetry(), WithDialer(dial), WithRetries(3), WithBreaker(0, 0), WithClientMetrics(reg))
	c, err := Dial(svc.Addr(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Call(MsgRegister, []byte("x")); err == nil {
		t.Fatal("doomed register call succeeded")
	}
	if got := seriesValue(reg, "proto_retries_total"); got != 0 {
		t.Fatalf("non-idempotent call was retried %v times", got)
	}
	if _, err := c.Call(MsgUpdate, []byte("x")); err == nil {
		t.Fatal("doomed update call succeeded")
	}
	if got := seriesValue(reg, "proto_retries_total"); got != 3 {
		t.Fatalf("idempotent call retried %v times, want 3", got)
	}
}

// The accept loop survives a storm of transient Accept errors and then
// serves normally.
func TestAcceptLoopSurvivesTransientErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	flaky := faults.NewFlakyListener(ln, 4)
	reg := obs.NewRegistry()
	svc, err := ServeListener(flaky, func(_ context.Context, typ byte, p []byte) ([]byte, error) {
		return p, nil
	}, quiet, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	c, err := Dial(svc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if resp, err := c.Call(1, []byte("alive")); err != nil || string(resp) != "alive" {
		t.Fatalf("service dead after transient accept errors: %q, %v", resp, err)
	}
	if got := seriesValue(reg, "proto_accept_retries_total"); got != 4 {
		t.Fatalf("proto_accept_retries_total = %v, want 4", got)
	}
}

// The connection cap rejects excess connections cleanly and frees slots
// when connections close.
func TestMaxConnsCapsAndRecovers(t *testing.T) {
	reg := obs.NewRegistry()
	svc := startEcho(t, WithMaxConns(1), WithMetrics(reg))

	c1, err := Dial(svc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Call(1, []byte("hold")); err != nil {
		t.Fatal(err)
	}

	// The second connection is accepted and closed: a clean EOF.
	raw, err := net.Dial("tcp", svc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := raw.Read(buf); err == nil {
		t.Fatal("over-cap connection served data")
	}
	raw.Close()
	if got := seriesValue(reg, "proto_conns_rejected_total"); got == 0 {
		t.Error("proto_conns_rejected_total = 0, want > 0")
	}

	// Freeing the slot lets a new client in.
	c1.Close()
	poll(t, 2*time.Second, func() bool {
		c2, err := Dial(svc.Addr())
		if err != nil {
			return false
		}
		defer c2.Close()
		_, err = c2.Call(1, []byte("in"))
		return err == nil
	}, "slot to free after close")
}

// Idle connections are reaped by the read deadline and counted separately
// from dropped frames.
func TestReadTimeoutReapsIdleConnections(t *testing.T) {
	reg := obs.NewRegistry()
	svc := startEcho(t, WithReadTimeout(50*time.Millisecond), WithMetrics(reg))

	raw, err := net.Dial("tcp", svc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.SetReadDeadline(time.Now().Add(3 * time.Second))
	buf := make([]byte, 1)
	if _, err := raw.Read(buf); err == nil {
		t.Fatal("idle connection was not dropped")
	}
	poll(t, 2*time.Second, func() bool {
		return seriesValue(reg, "proto_idle_drops_total") == 1
	}, "idle drop to be counted")
	if got := seriesValue(reg, "proto_dropped_frames_total"); got != 0 {
		t.Fatalf("idle reap miscounted as dropped frame (%v)", got)
	}
}

// Close with a drain timeout lets an in-flight request finish instead of
// cutting it mid-response.
func TestDrainTimeoutFinishesInFlightCall(t *testing.T) {
	svc, err := Serve("127.0.0.1:0", func(_ context.Context, typ byte, p []byte) ([]byte, error) {
		time.Sleep(80 * time.Millisecond)
		return p, nil
	}, quiet, WithDrainTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}

	c, err := Dial(svc.Addr(), WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res := make(chan error, 1)
	go func() {
		_, err := c.Call(1, []byte("slow"))
		res <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the request reach the handler
	if err := svc.Close(); err != nil {
		t.Fatalf("drain close: %v", err)
	}
	if err := <-res; err != nil {
		t.Fatalf("in-flight call cut by graceful close: %v", err)
	}
}

// End-to-end acceptance: with the database tier down mid-run, every user
// update keeps succeeding (regions spill at the anonymizer), and after the
// database returns every user's region lands — zero lost location updates.
func TestZeroLossAcrossDatabaseOutage(t *testing.T) {
	srv, err := server.New(server.Config{World: world})
	if err != nil {
		t.Fatal(err)
	}
	dbSvc, err := ServeDatabase("127.0.0.1:0", srv, quiet)
	if err != nil {
		t.Fatal(err)
	}
	dbAddr := dbSvc.Addr()

	fwd, err := DialDatabase(dbAddr,
		WithCallTimeout(500*time.Millisecond),
		WithRetries(0), WithBreaker(0, 0),
		WithRetryBackoff(time.Millisecond, 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()
	anon, err := anonymizer.New(anonymizer.Config{
		World:            world,
		Forward:          fwd.UpdatePrivate,
		ForwardQueue:     256,
		ForwardRetryBase: 10 * time.Millisecond,
		ForwardRetryMax:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer anon.Close()
	anonSvc, err := ServeAnonymizer("127.0.0.1:0", anon, quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer anonSvc.Close()
	ac, err := DialAnonymizer(anonSvc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()

	const users = 24
	prof := privacy.Constant(privacy.Requirement{K: 3})
	for id := uint64(1); id <= users; id++ {
		if err := ac.Register(id, prof); err != nil {
			t.Fatal(err)
		}
	}
	pos := func(id uint64, round int) geo.Point {
		return geo.Pt(float64(id)/(users+1), 0.1+0.2*float64(round))
	}

	// Round 0: database up, everything forwards directly.
	for id := uint64(1); id <= users; id++ {
		if _, err := ac.Update(id, pos(id, 0)); err != nil {
			t.Fatalf("round 0 update %d: %v", id, err)
		}
	}

	// Outage: the database tier goes away mid-run. Updates must keep
	// succeeding — the anonymizer spills cloaked regions, never errors.
	dbSvc.Close()
	for round := 1; round <= 2; round++ {
		for id := uint64(1); id <= users; id++ {
			if _, err := ac.Update(id, pos(id, round)); err != nil {
				t.Fatalf("update %d lost during outage: %v", id, err)
			}
		}
	}
	st, err := ac.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Spilled == 0 {
		t.Fatal("no spills recorded during the outage")
	}

	// Recovery on the same address; the spill queue must drain fully.
	dbSvc2, err := ServeDatabase(dbAddr, srv, quiet)
	if err != nil {
		t.Fatalf("cannot restart database on %s: %v", dbAddr, err)
	}
	defer dbSvc2.Close()
	poll(t, 10*time.Second, func() bool {
		st, err := ac.Stats()
		return err == nil && st.QueueDepth == 0
	}, "spill queue drain")

	if got := srv.PrivateUserCount(); got != users {
		t.Fatalf("database holds %d users after recovery, want %d — updates were lost", got, users)
	}
	st, err = ac.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Replayed == 0 {
		t.Fatal("queue drained without replays")
	}
	if st.Dropped != 0 {
		t.Fatalf("Dropped = %d, want 0 (queue was large enough)", st.Dropped)
	}
}
