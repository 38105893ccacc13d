package faults

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// pipe returns two ends of a real TCP connection on loopback.
func pipe(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		server, err = ln.Accept()
		close(done)
	}()
	client, cerr := net.Dial("tcp", ln.Addr().String())
	if cerr != nil {
		t.Fatal(cerr)
	}
	<-done
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// frame builds one [u32 length][payload] frame.
func frame(payload []byte) []byte {
	out := make([]byte, 4+len(payload))
	binary.LittleEndian.PutUint32(out, uint32(len(payload)))
	copy(out[4:], payload)
	return out
}

func TestTrackerCountsFrames(t *testing.T) {
	tr := tracker{record: true}
	if got := tr.current(); got != 1 {
		t.Fatalf("fresh tracker current = %d, want 1", got)
	}
	f1 := frame([]byte("hello"))
	f2 := frame([]byte("x"))
	// Feed byte-by-byte across both frames; the boundary must land exactly.
	stream := append(append([]byte(nil), f1...), f2...)
	for i, b := range stream {
		want := 1
		if i >= len(f1) {
			want = 2
		}
		if got := tr.current(); got != want {
			t.Fatalf("byte %d: current = %d, want %d", i, got, want)
		}
		tr.feed([]byte{b})
	}
	if got := tr.current(); got != 3 {
		t.Fatalf("after two frames current = %d, want 3", got)
	}
	if got := string(tr.types); got != "hx" {
		t.Fatalf("recorded types %q, want %q", got, "hx")
	}
}

func TestDropOnNthWrite(t *testing.T) {
	client, server := pipe(t)
	fc := Wrap(client, Rule{Op: Write, Nth: 2, Action: Drop})

	if _, err := fc.Write(frame([]byte("one"))); err != nil {
		t.Fatalf("frame 1 write: %v", err)
	}
	if _, err := fc.Write(frame([]byte("two"))); !errors.Is(err, ErrInjected) {
		t.Fatalf("frame 2 write err = %v, want ErrInjected", err)
	}
	// Peer reads frame 1 intact, then EOF-ish failure.
	buf := make([]byte, 16)
	if _, err := io.ReadFull(server, buf[:7]); err != nil {
		t.Fatalf("peer read of surviving frame: %v", err)
	}
	server.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := server.Read(buf); err == nil {
		t.Fatal("peer still readable after drop")
	}
}

func TestTruncateLeavesTornFrame(t *testing.T) {
	client, server := pipe(t)
	fc := Wrap(client, Rule{Op: Write, Nth: 1, Action: Truncate, KeepBytes: 3})

	n, err := fc.Write(frame([]byte("payload")))
	if n != 3 {
		t.Fatalf("truncated write wrote %d bytes, want 3", n)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("truncated write err = %v, want ErrInjected", err)
	}
	server.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	got, _ := io.ReadFull(server, buf)
	if got != 3 {
		t.Fatalf("peer received %d bytes of torn frame, want 3", got)
	}
}

func TestDelayIsTransparent(t *testing.T) {
	client, server := pipe(t)
	fc := Wrap(client, Rule{Op: Write, Nth: 1, Action: Delay, Delay: 50 * time.Millisecond})

	t0 := time.Now()
	if _, err := fc.Write(frame([]byte("slow"))); err != nil {
		t.Fatalf("delayed write: %v", err)
	}
	if d := time.Since(t0); d < 50*time.Millisecond {
		t.Fatalf("write returned after %v, want ≥ 50ms", d)
	}
	buf := make([]byte, 8)
	if _, err := io.ReadFull(server, buf); err != nil {
		t.Fatalf("peer read after delay: %v", err)
	}
}

func TestReadDrop(t *testing.T) {
	client, server := pipe(t)
	fc := Wrap(client, Rule{Op: Read, Nth: 2, Action: Reset})

	go func() {
		server.Write(frame([]byte("first")))
		server.Write(frame([]byte("second")))
	}()
	buf := make([]byte, 9)
	if _, err := io.ReadFull(fc, buf); err != nil {
		t.Fatalf("frame 1 read: %v", err)
	}
	fc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(fc, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("frame 2 read err = %v, want ErrInjected", err)
	}
}

// Rules fire on frames that begin inside a multi-frame operation: a
// coalesced write of several frames, a buffered read that would span them.
func TestRulesFireInsideMultiFrameIO(t *testing.T) {
	f1, f2, f3 := frame([]byte("one")), frame([]byte("second")), frame([]byte("three"))
	stream := append(append(append([]byte(nil), f1...), f2...), f3...)

	t.Run("write", func(t *testing.T) {
		client, server := pipe(t)
		fc := Wrap(client, Rule{Op: Write, Nth: 2, Action: Reset})
		n, err := fc.Write(stream)
		if n != len(f1) || !errors.Is(err, ErrInjected) {
			t.Fatalf("write of three frames = %d, %v; want %d (frame 1 only), ErrInjected", n, err, len(f1))
		}
		server.SetReadDeadline(time.Now().Add(2 * time.Second))
		got, err := io.ReadAll(server)
		if string(got) != string(f1) || err == nil {
			t.Fatalf("peer received %q, %v; want frame 1 then a reset", got, err)
		}
	})

	t.Run("read", func(t *testing.T) {
		client, server := pipe(t)
		fc := Wrap(client, Rule{Op: Read, Nth: 3, Action: Truncate, KeepBytes: 2})
		if _, err := server.Write(stream); err != nil {
			t.Fatal(err)
		}
		fc.SetReadDeadline(time.Now().Add(2 * time.Second))
		br := bufio.NewReader(fc) // asks for 4 KiB at a time
		got := make([]byte, len(stream))
		n, err := io.ReadFull(br, got)
		if want := len(f1) + len(f2) + 2; n != want || !errors.Is(err, ErrInjected) {
			t.Fatalf("buffered read of three frames = %d, %v; want %d (two frames and a torn third), ErrInjected", n, err, want)
		}
	})
}

func TestFlakyListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := NewFlakyListener(ln, 3)
	defer fl.Close()
	for i := 0; i < 3; i++ {
		if _, err := fl.Accept(); !errors.Is(err, ErrTransient) {
			t.Fatalf("accept %d err = %v, want ErrTransient", i, err)
		}
	}
	go net.Dial("tcp", ln.Addr().String())
	conn, err := fl.Accept()
	if err != nil {
		t.Fatalf("accept after transient failures: %v", err)
	}
	conn.Close()
	if fl.Accepts() != 4 {
		t.Fatalf("accepts = %d, want 4", fl.Accepts())
	}
}

// A pause rule must stall the peer mid-frame: the first byte arrives
// promptly, the rest only after the stall — and the connection survives.
func TestPauseStallsMidFrame(t *testing.T) {
	client, server := pipe(t)
	const stall = 150 * time.Millisecond
	fc := Wrap(client, Rule{Op: Write, Nth: 1, Action: Pause, Delay: stall})

	payload := frame([]byte("hello world"))
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := fc.Write(payload)
		done <- err
	}()

	// The first byte must arrive well before the stall elapses.
	one := make([]byte, 1)
	server.SetReadDeadline(time.Now().Add(stall / 2))
	if _, err := io.ReadFull(server, one); err != nil {
		t.Fatalf("first byte did not arrive before the stall: %v", err)
	}

	// The rest arrives only after the stall.
	rest := make([]byte, len(payload)-1)
	server.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(server, rest); err != nil {
		t.Fatalf("rest of frame: %v", err)
	}
	if elapsed := time.Since(start); elapsed < stall {
		t.Fatalf("frame completed in %v, want >= %v", elapsed, stall)
	}
	if err := <-done; err != nil {
		t.Fatalf("paused write failed: %v", err)
	}

	// The rule consumed itself: a second frame is instant and intact.
	if _, err := fc.Write(frame([]byte("again"))); err != nil {
		t.Fatalf("second write: %v", err)
	}
	buf := make([]byte, 4+5)
	if _, err := io.ReadFull(server, buf); err != nil {
		t.Fatalf("second frame: %v", err)
	}
}

// A bandwidth rule must cap sustained throughput and stay in force for
// the connection's life instead of consuming itself.
func TestBandwidthCapsThroughput(t *testing.T) {
	client, server := pipe(t)
	const rate = 4096 // bytes/sec
	fc := Wrap(client, Rule{Op: Write, Nth: 1, Action: Bandwidth, Rate: rate})

	// Drain the server side so writes never block on the socket buffer.
	go io.Copy(io.Discard, server)

	total := 0
	start := time.Now()
	for i := 0; i < 4; i++ {
		p := frame(make([]byte, 508)) // 512 bytes on the wire per frame
		n, err := fc.Write(p)
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		total += n
	}
	elapsed := time.Since(start)
	// 2048 bytes at 4096 B/s is at least ~500ms of pacing; allow slack
	// for coarse sleeps but catch an uncapped link (which finishes in µs).
	min := time.Duration(float64(total)/float64(rate)*float64(time.Second)) / 2
	if elapsed < min {
		t.Fatalf("%d bytes crossed in %v, want >= %v at %d B/s", total, elapsed, min, rate)
	}
}

// A bandwidth rule with Nth > 1 must leave earlier frames uncapped.
func TestBandwidthStartsAtNthFrame(t *testing.T) {
	client, server := pipe(t)
	fc := Wrap(client, Rule{Op: Write, Nth: 2, Action: Bandwidth, Rate: 64})
	go io.Copy(io.Discard, server)

	start := time.Now()
	if _, err := fc.Write(frame(make([]byte, 60))); err != nil { // frame 1: free
		t.Fatal(err)
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Fatalf("frame 1 was throttled: %v", time.Since(start))
	}
	start = time.Now()
	if _, err := fc.Write(frame(make([]byte, 60))); err != nil { // frame 2: 64 B/s
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 400*time.Millisecond {
		t.Fatalf("frame 2 crossed in %v, want >= 400ms at 64 B/s", elapsed)
	}
}
