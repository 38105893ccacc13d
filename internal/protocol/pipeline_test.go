package protocol

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// inFlight counts the calls awaiting replies on the client's connection.
func inFlight(c *Client) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	if c.cn != nil {
		for h := c.cn.head; h != nil; h = h.next {
			n++
		}
	}
	return n
}

// startCall issues one call on its own goroutine and returns once it is
// in flight behind the want-1 calls already there, so tests control the
// order of frames on the wire.
func startCall(t *testing.T, c *Client, want int, call func()) {
	t.Helper()
	go call()
	poll(t, 5*time.Second, func() bool { return inFlight(c) >= want }, fmt.Sprintf("%d calls in flight", want))
}

// Many goroutines share one client and one connection; every call gets the
// reply to its own request.
func TestPipelineEachCallGetsItsOwnReply(t *testing.T) {
	svc := startEcho(t)
	var conns atomic.Int64
	c, err := Dial(svc.Addr(), WithCallTimeout(30*time.Second), WithDialer(func(addr string) (net.Conn, error) {
		conns.Add(1)
		return net.Dial("tcp", addr)
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const callers, calls = 64, 1000
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var payload [12]byte
			binary.LittleEndian.PutUint32(payload[:], uint32(g))
			for i := 0; i < calls; i++ {
				binary.LittleEndian.PutUint64(payload[4:], uint64(i))
				// Vary the size so replies do not line up with read boundaries.
				req := payload[:4+i%9]
				resp, err := c.Call(MsgUpdate, req)
				if err != nil {
					t.Errorf("caller %d call %d: %v", g, i, err)
					return
				}
				if !bytes.Equal(resp, req) {
					t.Errorf("caller %d call %d: got reply %x, want %x", g, i, resp, req)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := conns.Load(); got != 1 {
		t.Errorf("client dialed %d connections, want 1", got)
	}
}

// The read role must go to a caller that is free to take it. Here the head
// of the FIFO is the flusher, stuck writing the next caller's large request
// while the peer is stuck writing the flusher's own large reply: only a
// parked caller can read, and without one reading neither side moves.
func TestPipelineReadRoleSkipsBusyFlusher(t *testing.T) {
	const big = 12 << 20 // well past what the socket buffers absorb
	entered, release := make(chan struct{}), make(chan struct{})
	svc, err := Serve("127.0.0.1:0", func(_ context.Context, _ byte, p []byte) ([]byte, error) {
		switch {
		case string(p) == "gate":
			close(entered)
			<-release
			return p, nil
		case p[0] == 'F':
			return p, nil // large request, large reply
		default:
			return p[:1], nil // large request, small reply
		}
	}, quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	c, err := Dial(svc.Addr(), WithCallTimeout(5*time.Second), WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	errs := make(chan error, 3)
	issue := func(payload []byte, want int) func() {
		return func() {
			resp, err := c.Call(MsgUpdate, payload)
			if err == nil && len(resp) != want {
				err = fmt.Errorf("%d-byte reply, want %d", len(resp), want)
			}
			errs <- err
		}
	}
	// The gate call holds the read role while the peer holds its handler.
	startCall(t, c, 1, issue([]byte("gate"), 4))
	<-entered
	// F becomes the flusher and blocks: the peer is not reading yet.
	startCall(t, c, 2, issue(bytes.Repeat([]byte("F"), big), big))
	// L's frame waits for F to flush it; L parks behind the reading gate call.
	startCall(t, c, 3, issue(bytes.Repeat([]byte("L"), big), 1))
	time.Sleep(20 * time.Millisecond)
	close(release)
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// While the handler is parked on the first request the later ones are not
// dispatched — one handler at a time per connection — and their replies
// follow it in request order, each to its own caller.
func TestPipelineRepliesQueueBehindParkedRequest(t *testing.T) {
	release := make(chan struct{})
	var mu sync.Mutex
	var order []byte
	svc, err := Serve("127.0.0.1:0", func(_ context.Context, _ byte, p []byte) ([]byte, error) {
		mu.Lock()
		order = append(order, p[0])
		first := len(order) == 1
		mu.Unlock()
		if first {
			<-release
		}
		return p, nil
	}, quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	c, err := Dial(svc.Addr(), WithCallTimeout(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 8
	var returned atomic.Int64
	errs := make(chan error, n)
	for i := 1; i <= n; i++ {
		startCall(t, c, i, func() {
			resp, err := c.Call(MsgUpdate, []byte{byte(i)})
			returned.Add(1)
			if err == nil && !bytes.Equal(resp, []byte{byte(i)}) {
				err = fmt.Errorf("call %d got reply %v", i, resp)
			}
			errs <- err
		})
	}
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	dispatched := len(order)
	mu.Unlock()
	if dispatched != 1 || returned.Load() != 0 {
		t.Fatalf("with request 1 parked: %d requests dispatched, %d calls returned; want 1, 0", dispatched, returned.Load())
	}
	close(release)
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if want := []byte{1, 2, 3, 4, 5, 6, 7, 8}; !bytes.Equal(order, want) {
		t.Errorf("requests dispatched in order %v, want %v", order, want)
	}
}

// A reset while calls are in flight fails all of them once: the idempotent
// ones succeed on a fresh connection, a registration returns the error and
// is never re-sent, and breaker and reconnect counters move by one — not
// by one per call in flight.
func TestPipelineResetFailsCallsInFlightOnce(t *testing.T) {
	release := make(chan struct{})
	var parked atomic.Bool
	var registers atomic.Int64
	svc, err := Serve("127.0.0.1:0", func(_ context.Context, typ byte, p []byte) ([]byte, error) {
		if typ == MsgRegister {
			registers.Add(1)
		}
		if parked.CompareAndSwap(false, true) {
			<-release // holds connection 1's calls in flight
		}
		return p, nil
	}, quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	defer close(release) // before Close, which waits for the parked handler

	reg := obs.NewRegistry()
	dial := faults.Dialer(func(conn int) []faults.Rule {
		if conn == 1 {
			return []faults.Rule{{Op: faults.Write, Nth: 4, Action: faults.Reset}}
		}
		return nil
	})
	// A threshold of 2: counting one failure per call in flight would open
	// the breaker and shed the retries.
	opts := append(fastRetry(), WithDialer(dial), WithRetries(2), WithBreaker(2, time.Minute),
		WithCallTimeout(30*time.Second), WithClientMetrics(reg))
	c, err := Dial(svc.Addr(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type result struct {
		typ  byte
		resp []byte
		err  error
	}
	results := make(chan result, 4)
	issue := func(typ byte, payload string) func() {
		return func() {
			resp, err := c.Call(typ, []byte(payload))
			results <- result{typ, resp, err}
		}
	}
	startCall(t, c, 1, issue(MsgUpdate, "update 1"))
	startCall(t, c, 2, issue(MsgRegister, "register"))
	startCall(t, c, 3, issue(MsgUpdate, "update 3"))
	go issue(MsgUpdate, "update 4")() // its frame is the fourth: the reset

	for i := 0; i < 4; i++ {
		r := <-results
		if r.typ == MsgRegister {
			if r.err == nil || errors.Is(r.err, ErrRemote) || errors.Is(r.err, ErrBreakerOpen) {
				t.Errorf("registration in flight at the reset returned %v, want the transport error", r.err)
			}
			continue
		}
		if r.err != nil || !bytes.HasPrefix(r.resp, []byte("update ")) {
			t.Errorf("idempotent call in flight at the reset: %q, %v; want its echo", r.resp, r.err)
		}
	}
	if got := registers.Load(); got > 1 {
		t.Errorf("server saw the registration %d times, want at most once", got)
	}
	if got := seriesValue(reg, "proto_retries_total"); got != 3 {
		t.Errorf("proto_retries_total = %v, want 3 (the idempotent calls in flight)", got)
	}
	if got := seriesValue(reg, "proto_reconnects_total"); got != 1 {
		t.Errorf("proto_reconnects_total = %v, want 1", got)
	}
	if got := seriesValue(reg, "proto_breaker_opens_total"); got != 0 {
		t.Errorf("breaker opened %v times: a dead connection must count as one failure", got)
	}
}

// A parked call's deadline is enforced by whichever caller is reading: it
// fails at its own deadline, the calls that shared the connection retry,
// and the client keeps working.
func TestPipelineDeadlineFailsFastAndLaterCallsSucceed(t *testing.T) {
	svc, err := Serve("127.0.0.1:0", func(_ context.Context, _ byte, p []byte) ([]byte, error) {
		if string(p) == "slow" {
			time.Sleep(300 * time.Millisecond)
		}
		return p, nil
	}, quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	reg := obs.NewRegistry()
	opts := append(fastRetry(), WithCallTimeout(30*time.Second), WithClientMetrics(reg))
	c, err := Dial(svc.Addr(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	slow := make(chan error, 1)
	startCall(t, c, 1, func() { // takes the read role, with 30 s to spare
		_, err := c.Call(MsgUpdate, []byte("slow"))
		slow <- err
	})
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.CallCtx(ctx, MsgUpdate, []byte("behind the slow one"))
	if err == nil {
		t.Fatal("call outlived its context deadline")
	}
	if el := time.Since(start); el > 200*time.Millisecond {
		t.Fatalf("parked call failed after %v, want about its 40ms deadline", el)
	}
	if err := <-slow; err != nil {
		t.Errorf("call sharing the connection was not retried through the timeout: %v", err)
	}
	if resp, err := c.Call(MsgUpdate, []byte("after")); err != nil || string(resp) != "after" {
		t.Errorf("call after the timeout: %q, %v", resp, err)
	}
	if got := seriesValue(reg, "proto_call_timeouts_total"); got != 1 {
		t.Errorf("proto_call_timeouts_total = %v, want 1", got)
	}
}

// One caller's backoff does not park the others: they dial afresh and
// finish while it sleeps, and the breaker and its state stay readable.
func TestBackoffDoesNotBlockOtherCallers(t *testing.T) {
	svc := startEcho(t)
	reg := obs.NewRegistry()
	dial := faults.Dialer(func(conn int) []faults.Rule {
		if conn == 1 {
			return []faults.Rule{{Op: faults.Write, Nth: 1, Action: faults.Reset}}
		}
		return nil
	})
	c, err := Dial(svc.Addr(), WithDialer(dial), WithRetries(1), WithRetryBackoff(500*time.Millisecond, time.Second),
		WithJitterSeed(7), WithCallTimeout(30*time.Second), WithClientMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	retried := make(chan error, 1)
	go func() {
		_, err := c.Call(MsgUpdate, []byte("hits the reset"))
		retried <- err
	}()
	poll(t, 5*time.Second, func() bool { return seriesValue(reg, "proto_retries_total") == 1 },
		"the first call to start its backoff")

	start := time.Now() // the backoff, at least 250ms, has just begun
	var wg sync.WaitGroup
	for i := 0; i < 7; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Call(MsgUpdate, []byte("bystander")); err != nil {
				t.Errorf("bystander call: %v", err)
			}
		}()
	}
	wg.Wait()
	if got := c.BreakerState(); got != breakerClosed {
		t.Errorf("BreakerState = %d, want closed", got)
	}
	if el := time.Since(start); el > 150*time.Millisecond {
		t.Errorf("seven other callers took %v behind one caller's backoff, want well under 250ms", el)
	}
	if err := <-retried; err != nil {
		t.Errorf("retried call: %v", err)
	}
	if got := seriesValue(reg, "proto_retries_total"); got != 1 {
		t.Errorf("proto_retries_total = %v, want 1 (the retried call only)", got)
	}
}

// rawFrame builds one request frame.
func rawFrame(typ byte, payload string) []byte {
	return appendFrame(nil, typ, []byte(payload))
}

// readReply reads one reply frame from a raw connection.
func readReply(t *testing.T, conn net.Conn) string {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	typ, payload, err := ReadFrame(conn)
	if err != nil {
		t.Fatalf("reading reply: %v", err)
	}
	if typ != msgOK {
		t.Fatalf("reply type %d, want OK", typ)
	}
	return string(payload)
}

// A peer may write several requests at once, or a request and part of the
// next: every complete request is answered before the service blocks for
// more input.
func TestServiceAnswersPipelinedFrames(t *testing.T) {
	svc := startEcho(t)
	dialRaw := func(t *testing.T) net.Conn {
		conn, err := net.Dial("tcp", svc.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}

	t.Run("three frames in one write", func(t *testing.T) {
		conn := dialRaw(t)
		var stream []byte
		for _, p := range []string{"a", "bb", "ccc"} {
			stream = append(stream, rawFrame(MsgUpdate, p)...)
		}
		if _, err := conn.Write(stream); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"a", "bb", "ccc"} {
			if got := readReply(t, conn); got != want {
				t.Fatalf("reply %q, want %q", got, want)
			}
		}
	})

	t.Run("one and a half frames, then a pause", func(t *testing.T) {
		conn := dialRaw(t)
		first, second := rawFrame(MsgUpdate, "first"), rawFrame(MsgUpdate, "second")
		half := len(second) / 2
		if _, err := conn.Write(append(append([]byte(nil), first...), second[:half]...)); err != nil {
			t.Fatal(err)
		}
		// Reply 1 must not wait for the rest of request 2.
		if got := readReply(t, conn); got != "first" {
			t.Fatalf("reply %q, want %q", got, "first")
		}
		if _, err := conn.Write(second[half:]); err != nil {
			t.Fatal(err)
		}
		if got := readReply(t, conn); got != "second" {
			t.Fatalf("reply %q, want %q", got, "second")
		}
	})
}
