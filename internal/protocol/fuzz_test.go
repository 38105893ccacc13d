package protocol

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/cloak"
	"repro/internal/codec"
	"repro/internal/geo"
	"repro/internal/privacy"
	"repro/internal/trace"
)

// Native fuzz targets for the wire layer: malformed input must return an
// error, never panic, hang, or over-allocate. The seed corpora include
// well-formed frames so the fuzzer explores the valid paths too. CI runs
// each for a short smoke window; `go test` always replays the corpus.

func validFrame(typ byte, payload []byte) []byte {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, typ, payload); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add(validFrame(MsgUpdate, []byte("payload")))
	f.Add(validFrame(msgOK, nil))
	huge := make([]byte, 4)
	binary.LittleEndian.PutUint32(huge, 1<<30)
	f.Add(append(huge, 0x05))
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(data))
		// ReadFrameBuf with a dirty reused buffer must agree with ReadFrame
		// on every input: same error disposition, same type, same payload
		// bytes. The 0xA5 fill catches any path that returns stale reused
		// bytes the read did not overwrite.
		dirty := bytes.Repeat([]byte{0xa5}, 64)
		btyp, bpayload, bufOut, berr := ReadFrameBuf(bytes.NewReader(data), dirty)
		if (err == nil) != (berr == nil) {
			t.Fatalf("ReadFrame err %v vs ReadFrameBuf err %v", err, berr)
		}
		if err != nil {
			return
		}
		if btyp != typ || !bytes.Equal(bpayload, payload) {
			t.Fatalf("ReadFrameBuf mismatch: (%d, %x) vs (%d, %x)", btyp, bpayload, typ, payload)
		}
		if len(payload)+1 <= len(dirty) && &bufOut[0] != &dirty[0] {
			t.Fatal("ReadFrameBuf did not reuse a large-enough buffer")
		}
		// A successful read must be consistent with the input: the payload
		// cannot exceed what was actually supplied (no over-allocation from
		// a forged length prefix).
		if len(payload)+5 > len(data) {
			t.Fatalf("payload %d bytes from %d input bytes", len(payload), len(data))
		}
		// And it must round-trip byte-exactly.
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, payload); err != nil {
			t.Fatalf("re-encode of decoded frame failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
			t.Fatalf("round trip mismatch: %x vs %x", buf.Bytes(), data[:buf.Len()])
		}
	})
}

func FuzzDecodeProfile(f *testing.F) {
	// Seed with a real encoded registration: user id, then the profile.
	prof := privacy.Constant(privacy.Requirement{K: 10, MinArea: 0.01})
	f.Add(body(func(e *codec.Encoder) { encodeUserProfile(e, 7, prof) }))
	f.Add([]byte{})
	f.Add([]byte{7, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff}) // forged count, no entries
	f.Fuzz(func(t *testing.T, data []byte) {
		id, p, err := decodeUserProfile(codec.NewDecoder(data))
		if err != nil {
			return
		}
		if p == nil {
			t.Fatal("nil profile with nil error")
		}
		// A decoded profile survives an encode/decode round trip.
		again := body(func(e *codec.Encoder) { encodeUserProfile(e, id, p) })
		if id2, _, err := decodeUserProfile(codec.NewDecoder(again)); err != nil || id2 != id {
			t.Fatalf("re-decode of re-encoded profile: id %d vs %d, err %v", id2, id, err)
		}
	})
}

func FuzzDecodeResult(f *testing.F) {
	f.Add(body(func(e *codec.Encoder) { encodeResult(e, cloakResultSeed()) }))
	f.Add([]byte{})
	f.Add(make([]byte, 36))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := codec.NewDecoder(data)
		res := decodeResult(d)
		if d.Err() != nil {
			return
		}
		// A decoded result survives an encode/decode round trip. Byte
		// equality does not hold in general (the decoder ignores unknown
		// flag bits, which re-encoding canonicalizes away), but field
		// equality must — except for non-canonical NaN floats (NaN != NaN).
		out := body(func(e *codec.Encoder) { encodeResult(e, res) })
		if len(out) > len(data) {
			t.Fatalf("encoded result longer than input: %d > %d", len(out), len(data))
		}
		d2 := codec.NewDecoder(out)
		res2 := decodeResult(d2)
		if d2.Err() != nil {
			t.Fatalf("re-decode of re-encoded result failed: %v", d2.Err())
		}
		if !hasNaN(res.Region) && res2 != res {
			t.Fatalf("round trip mismatch: %+v vs %+v", res2, res)
		}
	})
}

func FuzzDecodeMetrics(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(encodeMetrics(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		series, err := DecodeMetrics(data)
		if err != nil {
			return
		}
		// Decoded histograms must be internally consistent: counts always
		// cover one more bucket than bounds.
		for _, s := range series {
			if len(s.Hist.Counts) > 0 && len(s.Hist.Counts) != len(s.Hist.Bounds)+1 {
				t.Fatalf("series %q: %d counts for %d bounds",
					s.Name, len(s.Hist.Counts), len(s.Hist.Bounds))
			}
		}
	})
}

func FuzzDecodeTraced(f *testing.F) {
	// Seeds: a well-formed envelope, truncations, a nested envelope, a
	// response inner type, and a zero trace id.
	valid := encodeTraced(traceSeedCtx(), MsgUpdate, []byte("inner payload"))
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:tracedHeaderLen-1])
	f.Add(encodeTraced(traceSeedCtx(), MsgTraced, valid))
	f.Add(encodeTraced(traceSeedCtx(), msgOK, nil))
	f.Add(encodeTraced(trace.SpanContext{}, MsgUpdate, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, innerTyp, inner, err := decodeTraced(data)
		if err != nil {
			return
		}
		// The decoder's contract: a successful unwrap never yields another
		// envelope (no recursion), never a response type, never an
		// anonymous trace, and the inner payload is a verbatim suffix of
		// the input.
		if innerTyp == MsgTraced {
			t.Fatal("nested envelope accepted")
		}
		if innerTyp == msgOK || innerTyp == msgErr {
			t.Fatalf("response inner type %d accepted", innerTyp)
		}
		if sc.TraceID == 0 {
			t.Fatal("zero trace id accepted")
		}
		if len(data) < tracedHeaderLen || !bytes.Equal(inner, data[tracedHeaderLen:]) {
			t.Fatalf("inner payload not the verbatim suffix: %x", inner)
		}
		// Round trip.
		if out := encodeTraced(sc, innerTyp, inner); !bytes.Equal(out, data) {
			t.Fatalf("round trip mismatch: %x vs %x", out, data)
		}
	})
}

func FuzzDecodeSpans(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // forged count, no spans
	f.Add(encodeSpans(nil))
	f.Add(encodeSpans([]trace.SpanRecord{{
		TraceID: 7, SpanID: 8, ParentID: 9, Name: "proto_serve", Proc: "lbsd",
		Start: 1e9, Dur: 5e6,
		Attrs: []trace.Attr{trace.Str("type", "update"), trace.Int("attempt", 2)},
	}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		spans, err := DecodeSpans(data)
		if err != nil {
			return
		}
		// No over-allocation from forged counts: each decoded span consumed
		// at least its fixed-width prefix from the input.
		if len(spans)*45 > len(data) {
			t.Fatalf("%d spans from %d input bytes", len(spans), len(data))
		}
	})
}

func traceSeedCtx() trace.SpanContext {
	return trace.SpanContext{TraceID: 0x1234, SpanID: 0x56, Flags: trace.FlagSampled}
}

func cloakResultSeed() (res cloak.Result) {
	res.Region = geo.R(0.1, 0.1, 0.4, 0.4)
	res.K = 12
	res.SatisfiedK = true
	res.SatisfiedMinArea = true
	res.SatisfiedMaxArea = true
	return res
}

func hasNaN(r geo.Rect) bool {
	return math.IsNaN(r.Min.X) || math.IsNaN(r.Min.Y) || math.IsNaN(r.Max.X) || math.IsNaN(r.Max.Y)
}
