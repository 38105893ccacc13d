package protocol

import (
	"context"
	"errors"
	"net"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/anonymizer"
	"repro/internal/codec"
	"repro/internal/geo"
	"repro/internal/rng"
	"repro/internal/server"
)

// Malformed payloads to every message type must produce a remote error or
// a clean connection drop — never a panic or a hang.
func TestServicesSurviveMalformedPayloads(t *testing.T) {
	srv, err := server.New(server.Config{World: world})
	if err != nil {
		t.Fatal(err)
	}
	dbSvc, err := ServeDatabase("127.0.0.1:0", srv, quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer dbSvc.Close()
	anon, err := anonymizer.New(anonymizer.Config{World: world})
	if err != nil {
		t.Fatal(err)
	}
	anonSvc, err := ServeAnonymizer("127.0.0.1:0", anon, quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer anonSvc.Close()

	types := []byte{
		MsgRegister, MsgUpdate, MsgCloakQuery, MsgDeregister, MsgSetMode,
		MsgUpdatePrivate, MsgRemovePrivate, MsgPrivateRange, MsgPrivateNN,
		MsgPublicCount, MsgPublicNN, MsgLoadStationary, MsgStats, 77, 0,
	}
	payloads := [][]byte{
		nil,
		{0x01},
		{0xff, 0xff, 0xff, 0xff},
		make([]byte, 3),
		make([]byte, 17),
		[]byte("garbage garbage garbage"),
	}
	for _, addr := range []string{dbSvc.Addr(), anonSvc.Addr()} {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		for _, typ := range types {
			for _, p := range payloads {
				// Any outcome except a hang/panic is acceptable: remote error,
				// or success for trivially-parsable payloads (e.g. Stats).
				_, err := c.Call(typ, p)
				if err != nil && !errors.Is(err, ErrRemote) {
					// Transport-level failure: reconnect and continue.
					c.Close()
					c, err = Dial(addr)
					if err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		c.Close()
	}
	// Services are still alive and functional.
	dc, err := DialDatabase(dbSvc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	if _, _, err := dc.Stats(); err != nil {
		t.Fatalf("database service broken after malformed traffic: %v", err)
	}
}

// Raw random bytes on the socket (not even valid frames) must not wedge the
// service.
func TestServiceSurvivesRandomBytes(t *testing.T) {
	svc, err := Serve("127.0.0.1:0", func(_ context.Context, typ byte, p []byte) ([]byte, error) {
		return p, nil
	}, quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	src := rng.New(99)
	for trial := 0; trial < 20; trial++ {
		conn, err := net.Dial("tcp", svc.Addr())
		if err != nil {
			t.Fatal(err)
		}
		junk := make([]byte, 64+src.Intn(512))
		for i := range junk {
			junk[i] = byte(src.Uint64())
		}
		conn.Write(junk)
		conn.Close()
	}
	// A well-formed client still works.
	c, err := Dial(svc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if resp, err := c.Call(1, []byte("ok")); err != nil || string(resp) != "ok" {
		t.Fatalf("service wedged after junk: %q, %v", resp, err)
	}
}

// Property: arbitrary byte strings never panic the decoder-driven handlers.
func TestPropDecoderNeverPanics(t *testing.T) {
	srv, err := server.New(server.Config{World: world})
	if err != nil {
		t.Fatal(err)
	}
	h := &dbHandler{dbService{"database", localDB{srv}}, srv}
	f := func(typ byte, payload []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("handler panicked on type %d payload %v: %v", typ, payload, r)
			}
		}()
		h.handle(context.Background(), typ, payload)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// A slow or stalled peer must not block other connections (per-connection
// goroutines).
func TestConcurrentClientsIsolated(t *testing.T) {
	svc, err := Serve("127.0.0.1:0", func(_ context.Context, typ byte, p []byte) ([]byte, error) {
		return p, nil
	}, quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// A "stalled" connection: opens and sends a partial frame, then sits.
	stalled, err := net.Dial("tcp", svc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	stalled.Write([]byte{10, 0, 0}) // incomplete length prefix

	done := make(chan error, 1)
	go func() {
		c, err := Dial(svc.Addr())
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		_, err = c.Call(1, []byte("through"))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("healthy client blocked by stalled peer: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("healthy client timed out behind a stalled peer")
	}
}

// Huge declared frame lengths are rejected without allocation; the peer is
// disconnected rather than served.
func TestOversizedFrameDisconnects(t *testing.T) {
	svc, err := Serve("127.0.0.1:0", func(_ context.Context, typ byte, p []byte) ([]byte, error) {
		return nil, nil
	}, quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	conn, err := net.Dial("tcp", svc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Declare a 1 GiB frame.
	conn.Write([]byte{0x00, 0x00, 0x00, 0x40, 0x01})
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	if _, err := conn.Read(buf); err == nil {
		t.Error("expected disconnect after oversized frame, got data")
	}
}

// A MsgPublicNN reply whose candidate count the payload cannot hold is a
// short payload, and the stub returns no candidates beside the error: an
// 8-byte reply must not cost the client a 64 MiB list of zero values.
func TestPublicNNForgedCandidateCount(t *testing.T) {
	svc, err := Serve("127.0.0.1:0", func(context.Context, byte, []byte) ([]byte, error) {
		var e codec.Encoder
		e.U32(0).U32(1 << 22)
		return e.Bytes(), nil
	}, quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	dc, err := DialDatabase(svc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	res, err := dc.PublicNN(server.PublicNNQuery{From: geo.Pt(0.5, 0.5)})
	if !errors.Is(err, codec.ErrShortPayload) {
		t.Fatalf("forged count accepted: %v", err)
	}
	if len(res.Candidates) != 0 {
		t.Fatalf("%d candidates returned beside %v", len(res.Candidates), err)
	}
}
