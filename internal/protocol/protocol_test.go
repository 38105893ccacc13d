package protocol

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cloak"
	"repro/internal/codec"
	"repro/internal/geo"
	"repro/internal/privacy"
)

func TestEncoderDecoderRoundTrip(t *testing.T) {
	var e codec.Encoder
	e.U8(7).U16(65000).U32(4000000000).U64(1 << 60).F64(3.14159).
		Str("hello").Point(geo.Pt(1.5, -2.5)).Rect(geo.R(0, 0, 1, 1))
	d := codec.NewDecoder(e.Bytes())
	if d.U8() != 7 || d.U16() != 65000 || d.U32() != 4000000000 || d.U64() != 1<<60 {
		t.Fatal("integer round trip")
	}
	if d.F64() != 3.14159 {
		t.Fatal("float round trip")
	}
	if d.Str() != "hello" {
		t.Fatal("string round trip")
	}
	if !d.Point().Eq(geo.Pt(1.5, -2.5)) {
		t.Fatal("point round trip")
	}
	if !d.Rect().Eq(geo.R(0, 0, 1, 1)) {
		t.Fatal("rect round trip")
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", d.Err(), d.Remaining())
	}
}

func TestDecoderShortPayload(t *testing.T) {
	d := codec.NewDecoder([]byte{1, 2})
	_ = d.U32()
	if !errors.Is(d.Err(), codec.ErrShortPayload) {
		t.Fatalf("err = %v", d.Err())
	}
	// Sticky: further reads keep the error and return zero values.
	if d.U64() != 0 || d.Str() != "" || d.Err() == nil {
		t.Fatal("decoder error not sticky")
	}
}

func TestSpecialFloats(t *testing.T) {
	var e codec.Encoder
	e.F64(math.Inf(1)).F64(math.Inf(-1))
	d := codec.NewDecoder(e.Bytes())
	if !math.IsInf(d.F64(), 1) || !math.IsInf(d.F64(), -1) {
		t.Fatal("infinities did not survive")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgUpdate, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(&buf)
	if err != nil || typ != MsgUpdate || string(payload) != "payload" {
		t.Fatalf("frame = %d %q %v", typ, payload, err)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgStats, nil); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(&buf)
	if err != nil || typ != MsgStats || len(payload) != 0 {
		t.Fatalf("empty frame = %d %q %v", typ, payload, err)
	}
}

func TestReadFrameRejectsBadLength(t *testing.T) {
	// Length 0 is invalid (no type byte).
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0})); err == nil {
		t.Error("zero-length frame accepted")
	}
	// Oversized length rejected before allocation.
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff})); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestProfileRoundTrip(t *testing.T) {
	prof := privacy.PaperExample()
	var e codec.Encoder
	encodeUserProfile(&e, 42, prof)
	id, got, err := decodeUserProfile(codec.NewDecoder(e.Bytes()))
	if err != nil || id != 42 {
		t.Fatalf("id %d, err %v", id, err)
	}
	a, b := prof.Entries(), got.Entries()
	if len(a) != len(b) {
		t.Fatalf("entry counts %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestResultRoundTrip(t *testing.T) {
	f := func(k uint16, flags uint8, x0, y0, x1, y1 float64) bool {
		for _, v := range []float64{x0, y0, x1, y1} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		res := cloak.Result{
			Region:           geo.R(x0, y0, x1, y1),
			K:                int(k),
			SatisfiedK:       flags&1 != 0,
			SatisfiedMinArea: flags&2 != 0,
			SatisfiedMaxArea: flags&4 != 0,
			Reused:           flags&8 != 0,
		}
		got := decodeResult(codec.NewDecoder(body(func(e *codec.Encoder) { encodeResult(e, res) })))
		return got == res
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestServiceUnknownType(t *testing.T) {
	svc, err := Serve("127.0.0.1:0", func(_ context.Context, typ byte, _ []byte) ([]byte, error) {
		return nil, errors.New("nope")
	}, func(string, ...interface{}) {})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	c, err := Dial(svc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(99, nil); !errors.Is(err, ErrRemote) {
		t.Fatalf("remote error not surfaced: %v", err)
	}
	// The connection survives an application error.
	if _, err := c.Call(98, nil); !errors.Is(err, ErrRemote) {
		t.Fatalf("second call after error: %v", err)
	}
}

func TestServiceEcho(t *testing.T) {
	svc, err := Serve("127.0.0.1:0", func(_ context.Context, typ byte, payload []byte) ([]byte, error) {
		return payload, nil
	}, func(string, ...interface{}) {})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	c, err := Dial(svc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Call(5, []byte("ping"))
	if err != nil || string(resp) != "ping" {
		t.Fatalf("echo = %q, %v", resp, err)
	}
}

func TestServiceCloseIdempotent(t *testing.T) {
	svc, err := Serve("127.0.0.1:0", func(context.Context, byte, []byte) ([]byte, error) { return nil, nil },
		func(string, ...interface{}) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal("second close errored")
	}
}

// Property: any sequence of primitive writes decodes back verbatim.
func TestPropEncodeDecodeSequences(t *testing.T) {
	type item struct {
		kind byte
		u    uint64
		f    float64
		s    string
	}
	f := func(kinds []byte, us []uint64, fs []float64, ss []string) bool {
		var items []item
		for i, k := range kinds {
			it := item{kind: k % 5}
			if len(us) > 0 {
				it.u = us[i%len(us)]
			}
			if len(fs) > 0 {
				it.f = fs[i%len(fs)]
				if it.f != it.f { // NaN never round-trips comparably
					it.f = 0
				}
			}
			if len(ss) > 0 {
				it.s = ss[i%len(ss)]
				if len(it.s) > 1000 {
					it.s = it.s[:1000]
				}
			}
			items = append(items, it)
		}
		var e codec.Encoder
		for _, it := range items {
			switch it.kind {
			case 0:
				e.U8(byte(it.u))
			case 1:
				e.U16(uint16(it.u))
			case 2:
				e.U32(uint32(it.u))
			case 3:
				e.U64(it.u)
			case 4:
				e.F64(it.f)
			}
			e.Str(it.s)
		}
		d := codec.NewDecoder(e.Bytes())
		for _, it := range items {
			switch it.kind {
			case 0:
				if d.U8() != byte(it.u) {
					return false
				}
			case 1:
				if d.U16() != uint16(it.u) {
					return false
				}
			case 2:
				if d.U32() != uint32(it.u) {
					return false
				}
			case 3:
				if d.U64() != it.u {
					return false
				}
			case 4:
				if d.F64() != it.f {
					return false
				}
			}
			if d.Str() != it.s {
				return false
			}
		}
		return d.Err() == nil && d.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
