package protocol

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/trace"
)

// tracedHeaderLen is the fixed prefix of a MsgTraced payload:
// [u64 traceID][u64 parentSpanID][u8 flags][u8 innerType].
const tracedHeaderLen = 8 + 8 + 1 + 1

// encodeTraced wraps an inner request frame in the tracing envelope.
func encodeTraced(sc trace.SpanContext, innerTyp byte, inner []byte) []byte {
	var e codec.Encoder
	e.U64(sc.TraceID).U64(sc.SpanID).U8(sc.Flags).U8(innerTyp).Raw(inner)
	return e.Bytes()
}

// decodeTraced unwraps a tracing envelope. It rejects truncated payloads
// and nested envelopes (an envelope inside an envelope would let a peer
// build unbounded dispatch recursion), and refuses response types as the
// inner frame — the inner frame must be a request.
func decodeTraced(payload []byte) (sc trace.SpanContext, innerTyp byte, inner []byte, err error) {
	if len(payload) < tracedHeaderLen {
		return trace.SpanContext{}, 0, nil, codec.ErrShortPayload
	}
	d := codec.NewDecoder(payload)
	sc.TraceID = d.U64()
	sc.SpanID = d.U64()
	sc.Flags = d.U8()
	innerTyp = d.U8()
	switch innerTyp {
	case MsgTraced:
		return trace.SpanContext{}, 0, nil, fmt.Errorf("protocol: nested traced envelope")
	case msgOK, msgErr:
		return trace.SpanContext{}, 0, nil, fmt.Errorf("protocol: traced envelope around response type %d", innerTyp)
	}
	if sc.TraceID == 0 {
		return trace.SpanContext{}, 0, nil, fmt.Errorf("protocol: traced envelope with zero trace id")
	}
	return sc, innerTyp, payload[tracedHeaderLen:], nil
}

// encodeSpans serializes a span-ring snapshot for a MsgTraces response.
func encodeSpans(spans []trace.SpanRecord) []byte {
	var e codec.Encoder
	e.U32(uint32(len(spans)))
	for i := range spans {
		rec := &spans[i]
		e.U64(rec.TraceID).U64(rec.SpanID).U64(rec.ParentID)
		e.U64(uint64(rec.Start)).U64(uint64(rec.Dur))
		e.Str(rec.Name).Str(rec.Proc)
		attrs := rec.Attrs
		if len(attrs) > 255 { // the count field is one byte
			attrs = attrs[:255]
		}
		e.U8(byte(len(attrs)))
		for _, a := range attrs {
			if a.IsStr {
				e.U8(1).Str(a.Key).Str(a.Str)
			} else {
				e.U8(0).Str(a.Key).U64(uint64(a.Int))
			}
		}
	}
	return e.Bytes()
}

// DecodeSpans parses a MsgTraces response payload.
func DecodeSpans(payload []byte) ([]trace.SpanRecord, error) {
	d := codec.NewDecoder(payload)
	// 8·5 fixed bytes + two empty strings + attr count per span.
	n := d.Count(int(d.U32()), 45)
	out := make([]trace.SpanRecord, 0, n)
	for i := 0; i < n; i++ {
		var rec trace.SpanRecord
		rec.TraceID = d.U64()
		rec.SpanID = d.U64()
		rec.ParentID = d.U64()
		rec.Start = int64(d.U64())
		rec.Dur = int64(d.U64())
		rec.Name = d.Str()
		rec.Proc = d.Str()
		if na := d.Count(int(d.U8()), 4); na > 0 {
			rec.Attrs = make([]trace.Attr, 0, na)
			for j := 0; j < na; j++ {
				kind := d.U8()
				key := d.Str()
				switch kind {
				case 1:
					rec.Attrs = append(rec.Attrs, trace.Str(key, d.Str()))
				default:
					rec.Attrs = append(rec.Attrs, trace.Int(key, int64(d.U64())))
				}
			}
		}
		if d.Err() != nil {
			return nil, d.Err()
		}
		out = append(out, rec)
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	return out, nil
}

// Traces pulls the peer's span ring buffer. The peer must have tracing
// configured (Service WithTracing); un-traced peers answer ErrRemote.
func (c *Client) Traces() ([]trace.SpanRecord, error) {
	resp, err := c.Call(MsgTraces, nil)
	if err != nil {
		return nil, err
	}
	return DecodeSpans(resp)
}

// Traces pulls the anonymizer daemon's span ring buffer.
func (ac *AnonymizerClient) Traces() ([]trace.SpanRecord, error) { return ac.c.Traces() }

// Traces pulls the database daemon's span ring buffer.
func (dc *DatabaseClient) Traces() ([]trace.SpanRecord, error) { return dc.c.Traces() }
