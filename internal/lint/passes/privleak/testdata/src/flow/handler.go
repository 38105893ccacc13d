package fixture

import (
	"repro/internal/codec"
	"repro/internal/geo"
	"repro/internal/protocol"
)

// This file is shaped like the anonymizer's wire handler: one body codec
// per message, shared by the single and the batch request, whose decode
// reads the location through the //lint:source ingress, and a handler
// that calls the codecs statically. The pass must follow the taint from
// the ingress through both codecs into the handler's cases. If the
// handler is ever rebuilt over func-valued or generic codecs — through
// which the pass loses taint — this fixture is the shape to re-prove.

// request mirrors cloak.Request.
type request struct {
	ID  uint64
	Loc geo.Point
}

// exactPoint models protocol.exactPoint.
//
//lint:source fixture wire ingress off a Decoder
func exactPoint(d *codec.Decoder) geo.Point { return d.Point() }

func decodeRequest(d *codec.Decoder) request {
	return request{ID: d.U64(), Loc: exactPoint(d)}
}

func decodeBatch(d *codec.Decoder) []request {
	n := d.Count(int(d.U32()), 24)
	reqs := make([]request, 0, n)
	for i := 0; i < n; i++ {
		reqs = append(reqs, decodeRequest(d))
	}
	return reqs
}

// encodeRequest mirrors protocol.encodeLocRequest: an unannotated helper
// that writes a request's id and location. The user-side client calls it
// with its own location; a trusted-tier caller must never hand it a
// decoded one, and the pass must report the sinks inside it when one does.
func encodeRequest(e *codec.Encoder, r request) {
	e.U64(r.ID).Point(r.Loc) // want "wire sink Encoder.U64" "wire sink Encoder.Point"
}

// sendOwn is the user-side client encoding its own location: no taint.
func sendOwn(id uint64, loc geo.Point) []byte {
	var e codec.Encoder
	encodeRequest(&e, request{ID: id, Loc: loc})
	return e.Bytes()
}

func cloakRequest(r request) geo.Rect {
	return geo.R(r.Loc.X-1, r.Loc.Y-1, r.Loc.X+1, r.Loc.Y+1)
}

func handle(typ byte, payload []byte) []byte {
	d := codec.NewDecoder(payload)
	var e codec.Encoder
	switch typ {
	case protocol.MsgUpdate:
		req := decodeRequest(d)
		region := cloakRequest(req) //lint:sanitized fixture cloaking boundary
		e.Rect(region)
		e.Point(req.Loc) // want "exact location reaches wire sink Encoder.Point"
	case protocol.MsgCloakQuery:
		// Echoes the decoded request through the helper.
		encodeRequest(&e, decodeRequest(d))
	case protocol.MsgBatchUpdate:
		for _, r := range decodeBatch(d) {
			e.F64(r.Loc.X) // want "exact location reaches wire sink Encoder.F64"
		}
	}
	return e.Bytes()
}
