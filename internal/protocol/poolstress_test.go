package protocol

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/geo"
	"repro/internal/rng"
	"repro/internal/server"
)

// The frame-buffer reuse introduced for the hot path (pooled WriteFrame
// staging buffers, per-connection ReadFrameBuf reuse in serveConn) is
// only sound while no decoded view of a frame outlives the frame's
// handling. These tests pin that contract: the unit test documents the
// aliasing behavior callers must respect, and the stress test interleaves
// pooled encodes/decodes with concurrent calls on live connections so the
// race detector — CI runs this package under -race — sees any reuse of a
// buffer that still backs someone's payload, and any retroactive
// corruption of an already-decoded response.

// TestReadFrameBufAliasContract documents the reuse contract: the payload
// returned by ReadFrameBuf aliases the reusable buffer, so reading the
// next frame overwrites it in place — while values decoded (copied) out
// of the payload before that read stay intact.
func TestReadFrameBufAliasContract(t *testing.T) {
	var stream bytes.Buffer
	var ea, eb codec.Encoder
	ea.U64(0x1111).Str("alpha")
	eb.U64(0x2222).Str("bravo")
	if err := WriteFrame(&stream, MsgStats, ea.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&stream, MsgStats, eb.Bytes()); err != nil {
		t.Fatal(err)
	}

	_, payloadA, buf, err := ReadFrameBuf(&stream, nil)
	if err != nil {
		t.Fatal(err)
	}
	da := codec.NewDecoder(payloadA)
	idA, strA := da.U64(), da.Str() // copied out: survive the next read
	viewA := payloadA               // retained view: must NOT survive

	_, payloadB, _, err := ReadFrameBuf(&stream, buf)
	if err != nil {
		t.Fatal(err)
	}
	if idA != 0x1111 || strA != "alpha" {
		t.Fatalf("decoded values corrupted by buffer reuse: %#x %q", idA, strA)
	}
	db := codec.NewDecoder(payloadB)
	if id := db.U64(); id != 0x2222 {
		t.Fatalf("second frame decoded %#x, want 0x2222", id)
	}
	// The retained view now shows frame B's bytes — the documented hazard
	// that makes retaining payload views across reads a bug.
	if &viewA[0] != &payloadB[0] || bytes.Equal(viewA, append([]byte(nil), ea.Bytes()...)) {
		t.Fatalf("expected the retained view to be overwritten in place; got %x", viewA)
	}
}

// TestWireNoAliasStress drives a live database service from concurrent
// clients with a read-only query mix whose answers are deterministic,
// checking every decoded response against reference answers and
// re-checking retained early responses after the full barrage — if any
// pooled write buffer were recycled mid-write, or a connection's read
// buffer reused while a response still referenced it, responses would
// corrupt (and -race would flag the unsynchronized reuse).
func TestWireNoAliasStress(t *testing.T) {
	world := geo.R(0, 0, 1, 1)
	srv, err := server.New(server.Config{World: world, QueryWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(41)
	classes := []string{"gas", "atm", "cafe"}
	objs := make([]server.PublicObject, 300)
	for i := range objs {
		objs[i] = server.PublicObject{
			ID:    uint64(i + 1),
			Class: classes[i%len(classes)],
			Loc:   geo.Pt(src.Float64(), src.Float64()),
		}
	}
	if err := srv.LoadStationary(objs); err != nil {
		t.Fatal(err)
	}
	userRects := make([]geo.Rect, 200)
	for i := range userRects {
		p := geo.Pt(src.Float64(), src.Float64())
		userRects[i] = geo.RectAround(p, 0.01+0.02*src.Float64()).Clip(world)
		if err := srv.UpdatePrivate(uint64(i+1), userRects[i]); err != nil {
			t.Fatal(err)
		}
	}
	svc, err := ServeDatabase("127.0.0.1:0", srv, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	rangeQ := server.PrivateRangeQuery{Region: geo.R(0.2, 0.2, 0.5, 0.5), Radius: 0.1, Class: "gas"}
	nnQ := server.PrivateNNQuery{Region: geo.R(0.4, 0.4, 0.6, 0.6), Class: "cafe"}
	countQ := geo.R(0.1, 0.1, 0.7, 0.7)
	batch := []server.BatchEntry{
		{Kind: server.BatchPrivateRange, Range: rangeQ},
		{Kind: server.BatchPrivateNN, NN: nnQ},
		{Kind: server.BatchPublicCount, Count: server.PublicRangeCountQuery{Query: countQ}},
		{Kind: server.BatchPrivateRange, Range: server.PrivateRangeQuery{Region: geo.R(0.5, 0.1, 0.9, 0.4), Radius: 0.2, Class: "atm"}},
	}

	// Reference answers through a throwaway client; the stress state is
	// static (stress re-upserts identical user regions), so every later
	// response must match these exactly.
	ref, err := DialDatabase(svc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	wantRange, err := ref.PrivateRange(rangeQ)
	if err != nil {
		t.Fatal(err)
	}
	wantNN, err := ref.PrivateNN(nnQ)
	if err != nil {
		t.Fatal(err)
	}
	wantCount, err := ref.PublicCount(countQ)
	if err != nil {
		t.Fatal(err)
	}
	wantBatch, err := ref.BatchQuery(batch)
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()

	const (
		goroutines = 8
		iters      = 50
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dc, err := DialDatabase(svc.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer dc.Close()
			// Retained early responses, re-verified after the barrage:
			// catches retroactive corruption of already-returned data.
			var earlyRange []server.PublicObject
			var earlyBatch server.BatchResult
			uid := uint64(g%len(userRects)) + 1
			for i := 0; i < iters; i++ {
				switch i % 5 {
				case 0:
					got, err := dc.PrivateRange(rangeQ)
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(got, wantRange) {
						errs <- fmt.Errorf("goroutine %d iter %d: range response diverged", g, i)
						return
					}
					if earlyRange == nil {
						earlyRange = got
					}
				case 1:
					got, err := dc.PrivateNN(nnQ)
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(got, wantNN) {
						errs <- fmt.Errorf("goroutine %d iter %d: NN response diverged", g, i)
						return
					}
				case 2:
					got, err := dc.PublicCount(countQ)
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(got, wantCount) {
						errs <- fmt.Errorf("goroutine %d iter %d: count response diverged", g, i)
						return
					}
				case 3:
					got, err := dc.BatchQuery(batch)
					if err != nil {
						errs <- err
						return
					}
					// Memo hits depend on what ran before; the answers do not.
					if !reflect.DeepEqual(got.Items, wantBatch.Items) {
						errs <- fmt.Errorf("goroutine %d iter %d: batch response diverged", g, i)
						return
					}
					if earlyBatch.Items == nil {
						earlyBatch = got
					}
				case 4:
					// Idempotent re-upsert of this goroutine's own user:
					// exercises the write path without changing any answer.
					if err := dc.UpdatePrivate(uid, userRects[uid-1]); err != nil {
						errs <- err
						return
					}
				}
			}
			if earlyRange != nil && !reflect.DeepEqual(earlyRange, wantRange) {
				errs <- fmt.Errorf("goroutine %d: early range response corrupted retroactively", g)
				return
			}
			if earlyBatch.Items != nil && !reflect.DeepEqual(earlyBatch.Items, wantBatch.Items) {
				errs <- fmt.Errorf("goroutine %d: early batch response corrupted retroactively", g)
				return
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
