package protocol

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/geo"
	"repro/internal/server"
)

// ServeDatabase exposes a server.Server over TCP. The service accepts only
// region-typed private updates — exactly the paper's trust boundary. Pass
// WithMetrics to instrument the wire layer and answer MsgMetrics.
func ServeDatabase(addr string, srv *server.Server, logf func(string, ...interface{}), opts ...Option) (*Service, error) {
	h := &dbHandler{srv: srv}
	return Serve(addr, h.handle, logf, opts...)
}

type dbHandler struct {
	srv *server.Server
}

func (h *dbHandler) handle(ctx context.Context, typ byte, payload []byte) ([]byte, error) {
	d := NewDecoder(payload)
	switch typ {
	case MsgUpdatePrivate:
		id := d.U64()
		region := d.Rect()
		if d.Err() != nil {
			return nil, d.Err()
		}
		return nil, h.srv.UpdatePrivateCtx(ctx, id, region)

	case MsgRemovePrivate:
		id := d.U64()
		if d.Err() != nil {
			return nil, d.Err()
		}
		h.srv.RemovePrivate(id)
		return nil, nil

	case MsgLoadStationary:
		objs := decodeObjects(d)
		if d.Err() != nil {
			return nil, d.Err()
		}
		return nil, h.srv.LoadStationary(objs)

	case MsgPrivateRange:
		q := server.PrivateRangeQuery{
			Region: d.Rect(),
			Radius: d.F64(),
			Class:  d.Str(),
			Mode:   server.RangeMode(d.U8()),
		}
		if d.Err() != nil {
			return nil, d.Err()
		}
		objs, err := h.srv.PrivateRangeCtx(ctx, q)
		if err != nil {
			return nil, err
		}
		return encodeObjects(objs), nil

	case MsgPrivateNN:
		q := server.PrivateNNQuery{Region: d.Rect(), Class: d.Str()}
		if d.Err() != nil {
			return nil, d.Err()
		}
		res, err := h.srv.PrivateNNCtx(ctx, q)
		if err != nil {
			return nil, err
		}
		var e Encoder
		e.U32(uint32(res.SupersetSize))
		encodeObjectsTo(&e, res.Candidates)
		return e.Bytes(), nil

	case MsgPublicCount:
		q := server.PublicRangeCountQuery{Query: d.Rect()}
		if d.Err() != nil {
			return nil, d.Err()
		}
		res, err := h.srv.PublicRangeCountCtx(ctx, q)
		if err != nil {
			return nil, err
		}
		var e Encoder
		encodeCountResult(&e, res)
		return e.Bytes(), nil

	case MsgBatchQuery:
		entries, err := decodeBatchEntries(d)
		if err != nil {
			return nil, err
		}
		return encodeBatchResult(entries, h.srv.BatchQueryCtx(ctx, entries)), nil

	case MsgPublicNN:
		q := server.PublicNNQuery{
			From:    d.Point(),
			Samples: int(d.U32()),
			Seed:    d.U64(),
		}
		if d.Err() != nil {
			return nil, d.Err()
		}
		// Clamp the Monte-Carlo effort a remote peer can demand.
		const maxSamples = 100000
		if q.Samples > maxSamples {
			q.Samples = maxSamples
		}
		res, err := h.srv.PublicNN(q)
		if err != nil {
			return nil, err
		}
		var e Encoder
		e.U32(uint32(res.PrunedCount))
		e.U32(uint32(len(res.Candidates)))
		for _, c := range res.Candidates {
			e.U64(c.ID).F64(c.Prob).Rect(res.CandidateRegions[c.ID])
		}
		return e.Bytes(), nil

	case MsgStats:
		var e Encoder
		e.U32(uint32(h.srv.StationaryCount()))
		e.U32(uint32(h.srv.PrivateUserCount()))
		return e.Bytes(), nil

	case MsgRegContCount:
		query := d.Rect()
		if d.Err() != nil {
			return nil, d.Err()
		}
		id, err := h.srv.RegisterContinuousCount(query)
		if err != nil {
			return nil, err
		}
		var e Encoder
		e.U64(id)
		return e.Bytes(), nil

	case MsgContCount:
		id := d.U64()
		if d.Err() != nil {
			return nil, d.Err()
		}
		ans, ok := h.srv.ContinuousCount(id)
		if !ok {
			return nil, fmt.Errorf("protocol: unknown continuous query %d", id)
		}
		var e Encoder
		e.F64(ans.Expected).U32(uint32(ans.Lo)).U32(uint32(ans.Hi))
		return e.Bytes(), nil

	case MsgUnregContCount:
		id := d.U64()
		if d.Err() != nil {
			return nil, d.Err()
		}
		if !h.srv.UnregisterContinuousCount(id) {
			return nil, fmt.Errorf("protocol: unknown continuous query %d", id)
		}
		return nil, nil

	case MsgUpdateMoving:
		id := d.U64()
		loc := d.Point()
		if d.Err() != nil {
			return nil, d.Err()
		}
		return nil, h.srv.UpdateMoving(id, loc)

	case MsgRemoveMoving:
		id := d.U64()
		if d.Err() != nil {
			return nil, d.Err()
		}
		var e Encoder
		e.U8(boolByte(h.srv.RemoveMoving(id)))
		return e.Bytes(), nil

	case MsgNNParts:
		q := server.PrivateNNQuery{Region: d.Rect(), Class: d.Str()}
		if d.Err() != nil {
			return nil, d.Err()
		}
		parts, err := h.srv.PrivateNNPartsCtx(ctx, q)
		if err != nil {
			return nil, err
		}
		var e Encoder
		e.F64(parts.Bound)
		encodeObjectsTo(&e, parts.Candidates)
		return e.Bytes(), nil

	case MsgCountProbs:
		q := server.PublicRangeCountQuery{Query: d.Rect()}
		if d.Err() != nil {
			return nil, d.Err()
		}
		pairs, err := h.srv.PublicCountProbsCtx(ctx, q)
		if err != nil {
			return nil, err
		}
		var e Encoder
		encodeUserProbs(&e, pairs)
		return e.Bytes(), nil

	case MsgShardBatch:
		subs, err := decodeSubQueries(d)
		if err != nil {
			return nil, err
		}
		return encodeSubResults(evalSubQueries(ctx, h.srv, subs)), nil

	default:
		return nil, fmt.Errorf("protocol: database service: unknown message type %d", typ)
	}
}

func encodeObjects(objs []server.PublicObject) []byte {
	var e Encoder
	encodeObjectsTo(&e, objs)
	return e.Bytes()
}

// encodeObjectsTo appends an object list in place — the batch result
// encoder emits one list per range/NN item, so building each list in a
// throwaway Encoder and copying it over would double the allocation
// count of the whole response.
func encodeObjectsTo(e *Encoder, objs []server.PublicObject) {
	e.Grow(objectsSize(objs))
	e.U32(uint32(len(objs)))
	for _, o := range objs {
		e.U64(o.ID).Str(o.Class).Point(o.Loc)
	}
}

// objectsSize is the exact wire size of an encoded object list.
func objectsSize(objs []server.PublicObject) int {
	n := 4 + 26*len(objs)
	for _, o := range objs {
		n += len(o.Class)
	}
	return n
}

func decodeObjects(d *Decoder) []server.PublicObject {
	n := int(d.U32())
	objs := make([]server.PublicObject, 0, capHint(n, 26, d))
	// Intern the class column: result lists repeat a few class names, so
	// decoding costs one string per run of equal values, not one per object.
	var class string
	for i := 0; i < n; i++ {
		objs = append(objs, server.PublicObject{ID: d.U64(), Class: d.StrCache(&class), Loc: d.Point()})
		if d.Err() != nil {
			return nil
		}
	}
	return objs
}

// encodeCountResult appends a PublicRangeCountResult (shared by the
// MsgPublicCount response and per-entry batch results).
func encodeCountResult(e *Encoder, res server.PublicRangeCountResult) {
	e.F64(res.Answer.Expected)
	e.U32(uint32(res.Answer.Lo)).U32(uint32(res.Answer.Hi))
	e.U32(uint32(res.NaiveCount))
	e.U32(uint32(len(res.Answer.PDF)))
	for _, p := range res.Answer.PDF {
		e.F64(p)
	}
}

// decodeCountResult is the inverse of encodeCountResult.
func decodeCountResult(d *Decoder) server.PublicRangeCountResult {
	var res server.PublicRangeCountResult
	res.Answer.Expected = d.F64()
	res.Answer.Lo = int(d.U32())
	res.Answer.Hi = int(d.U32())
	res.NaiveCount = int(d.U32())
	n := int(d.U32())
	res.Answer.PDF = make([]float64, 0, capHint(n, 8, d))
	for i := 0; i < n && d.Err() == nil; i++ {
		res.Answer.PDF = append(res.Answer.PDF, d.F64())
	}
	return res
}

// maxBatchEntries bounds a MsgBatchQuery frame: large enough for any
// realistic shared-execution window, small enough that a hostile peer
// cannot turn one frame into an unbounded amount of work.
const maxBatchEntries = 4096

// encodeBatchEntries appends a batch-query request body.
func encodeBatchEntries(e *Encoder, entries []server.BatchEntry) {
	e.Grow(4 + 48*len(entries))
	e.U32(uint32(len(entries)))
	for _, be := range entries {
		e.U8(byte(be.Kind))
		switch be.Kind {
		case server.BatchPrivateRange:
			e.Rect(be.Range.Region).F64(be.Range.Radius).Str(be.Range.Class).U8(byte(be.Range.Mode))
		case server.BatchPrivateNN:
			e.Rect(be.NN.Region).Str(be.NN.Class)
		case server.BatchPublicCount:
			e.Rect(be.Count.Query)
		}
	}
}

// decodeBatchEntries parses a batch-query request body. An unknown kind
// byte makes the remaining layout unparseable, so it fails the whole call
// — per-entry failure semantics apply to well-formed frames whose query
// *parameters* are invalid, which the server reports per entry.
func decodeBatchEntries(d *Decoder) ([]server.BatchEntry, error) {
	n := int(d.U32())
	if n > maxBatchEntries {
		return nil, fmt.Errorf("protocol: batch of %d entries exceeds the %d-entry cap", n, maxBatchEntries)
	}
	// Every entry needs ≥ 33 bytes (kind + rectangle).
	entries := make([]server.BatchEntry, 0, capHint(n, 33, d))
	// Intern the class column: batches repeat a few class names, so
	// decoding costs one string per run of equal values, not one per entry.
	var class string
	for i := 0; i < n && d.Err() == nil; i++ {
		kind := server.BatchKind(d.U8())
		be := server.BatchEntry{Kind: kind}
		switch kind {
		case server.BatchPrivateRange:
			be.Range = server.PrivateRangeQuery{
				Region: d.Rect(),
				Radius: d.F64(),
				Class:  d.StrCache(&class),
				Mode:   server.RangeMode(d.U8()),
			}
		case server.BatchPrivateNN:
			be.NN = server.PrivateNNQuery{Region: d.Rect(), Class: d.StrCache(&class)}
		case server.BatchPublicCount:
			be.Count = server.PublicRangeCountQuery{Query: d.Rect()}
		default:
			return nil, fmt.Errorf("protocol: unknown batch query kind %d at entry %d", byte(kind), i)
		}
		entries = append(entries, be)
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	return entries, nil
}

// encodeBatchResult builds the OK payload for a batch query: a typed
// MsgBatchResult sub-frame so the response is self-describing on the
// wire. Each entry carries a status byte and its kind tag, then the same
// per-kind encoding the single-query responses use.
func encodeBatchResult(entries []server.BatchEntry, res server.BatchResult) []byte {
	// Pre-scan the exact response size so the whole frame is built in one
	// allocation. Failed entries are skipped (error strings are rare and
	// cheap to absorb through Grow's geometric fallback).
	size := 13
	for i, it := range res.Items {
		if it.Err != nil {
			continue
		}
		size += 2
		switch entries[i].Kind {
		case server.BatchPrivateRange:
			size += objectsSize(it.Range)
		case server.BatchPrivateNN:
			size += 4 + objectsSize(it.NN.Candidates)
		case server.BatchPublicCount:
			size += 24 + 8*len(it.Count.Answer.PDF)
		}
	}
	var e Encoder
	e.Grow(size)
	e.U8(MsgBatchResult)
	e.U32(uint32(res.Groups)).U32(uint32(res.SharedHits))
	e.U32(uint32(len(res.Items)))
	for i, it := range res.Items {
		if it.Err != nil {
			e.U8(1)
			// Send the underlying cause; the client re-wraps it with the
			// entry's index and kind, so both sides print the same error.
			var bee *server.BatchEntryError
			if errors.As(it.Err, &bee) {
				e.Str(bee.Err.Error())
			} else {
				e.Str(it.Err.Error())
			}
			continue
		}
		e.U8(0)
		kind := entries[i].Kind
		e.U8(byte(kind))
		switch kind {
		case server.BatchPrivateRange:
			encodeObjectsTo(&e, it.Range)
		case server.BatchPrivateNN:
			e.U32(uint32(it.NN.SupersetSize))
			encodeObjectsTo(&e, it.NN.Candidates)
		case server.BatchPublicCount:
			encodeCountResult(&e, it.Count)
		}
	}
	return e.Bytes()
}

// decodeBatchResult parses a MsgBatchResult sub-frame back into a
// server.BatchResult.
func decodeBatchResult(d *Decoder) (server.BatchResult, error) {
	if tag := d.U8(); d.Err() == nil && tag != MsgBatchResult {
		return server.BatchResult{}, fmt.Errorf("protocol: batch response tagged %d, want %d", tag, MsgBatchResult)
	}
	var res server.BatchResult
	res.Groups = int(d.U32())
	res.SharedHits = int(d.U32())
	n := int(d.U32())
	res.Items = make([]server.BatchItemResult, 0, capHint(n, 2, d))
	for i := 0; i < n && d.Err() == nil; i++ {
		var it server.BatchItemResult
		if d.U8() != 0 {
			msg := d.Str()
			if d.Err() == nil {
				it.Err = &server.BatchEntryError{Index: i, Kind: 0, Err: errors.New(msg)}
			}
			res.Items = append(res.Items, it)
			continue
		}
		kind := server.BatchKind(d.U8())
		switch kind {
		case server.BatchPrivateRange:
			it.Range = decodeObjects(d)
		case server.BatchPrivateNN:
			it.NN.SupersetSize = int(d.U32())
			it.NN.Candidates = decodeObjects(d)
		case server.BatchPublicCount:
			it.Count = decodeCountResult(d)
		default:
			if d.Err() == nil {
				return server.BatchResult{}, fmt.Errorf("protocol: unknown batch result kind %d at entry %d", byte(kind), i)
			}
		}
		res.Items = append(res.Items, it)
	}
	return res, d.Err()
}

// capHint bounds a length prefix by what the remaining payload could
// possibly hold, given a minimum per-element encoding size. It protects
// every decode loop from forged counts.
func capHint(n, minBytes int, d *Decoder) int {
	if n < 0 {
		return 0
	}
	max := d.Remaining() / minBytes
	if n > max {
		return max
	}
	return n
}

// DatabaseClient is the typed client for the database service, used by
// untrusted third parties (admins) and by the anonymizer's forwarder.
type DatabaseClient struct {
	c *Client
}

// DialDatabase connects to a database service. Options configure the
// client's fault tolerance (deadlines, retries, circuit breaker).
func DialDatabase(addr string, opts ...DialOption) (*DatabaseClient, error) {
	c, err := Dial(addr, opts...)
	if err != nil {
		return nil, err
	}
	return &DatabaseClient{c: c}, nil
}

// Close closes the connection.
func (dc *DatabaseClient) Close() error { return dc.c.Close() }

// UpdatePrivate forwards a cloaked region (the anonymizer's sink).
func (dc *DatabaseClient) UpdatePrivate(id uint64, region geo.Rect) error {
	return dc.UpdatePrivateCtx(context.Background(), id, region)
}

// UpdatePrivateCtx is UpdatePrivate under a context (deadline, trace) —
// the forwarder threads the cloak pipeline's trace through here so the
// forward hop shows up in the request's timeline.
func (dc *DatabaseClient) UpdatePrivateCtx(ctx context.Context, id uint64, region geo.Rect) error {
	var e Encoder
	e.U64(id).Rect(region)
	_, err := dc.c.CallCtx(ctx, MsgUpdatePrivate, e.Bytes())
	return err
}

// RemovePrivate removes a user's region.
func (dc *DatabaseClient) RemovePrivate(id uint64) error {
	var e Encoder
	e.U64(id)
	_, err := dc.c.Call(MsgRemovePrivate, e.Bytes())
	return err
}

// LoadStationary bulk-loads public objects.
func (dc *DatabaseClient) LoadStationary(objs []server.PublicObject) error {
	_, err := dc.c.Call(MsgLoadStationary, encodeObjects(objs))
	return err
}

// PrivateRange runs a private range query.
func (dc *DatabaseClient) PrivateRange(q server.PrivateRangeQuery) ([]server.PublicObject, error) {
	return dc.PrivateRangeCtx(context.Background(), q)
}

// PrivateRangeCtx is PrivateRange under a context (deadline, trace).
func (dc *DatabaseClient) PrivateRangeCtx(ctx context.Context, q server.PrivateRangeQuery) ([]server.PublicObject, error) {
	var e Encoder
	e.Rect(q.Region).F64(q.Radius).Str(q.Class).U8(byte(q.Mode))
	resp, err := dc.c.CallCtx(ctx, MsgPrivateRange, e.Bytes())
	if err != nil {
		return nil, err
	}
	d := NewDecoder(resp)
	objs := decodeObjects(d)
	return objs, d.Err()
}

// PrivateNN runs a private nearest-neighbor query.
func (dc *DatabaseClient) PrivateNN(q server.PrivateNNQuery) (server.PrivateNNResult, error) {
	return dc.PrivateNNCtx(context.Background(), q)
}

// PrivateNNCtx is PrivateNN under a context (deadline, trace).
func (dc *DatabaseClient) PrivateNNCtx(ctx context.Context, q server.PrivateNNQuery) (server.PrivateNNResult, error) {
	var e Encoder
	e.Rect(q.Region).Str(q.Class)
	resp, err := dc.c.CallCtx(ctx, MsgPrivateNN, e.Bytes())
	if err != nil {
		return server.PrivateNNResult{}, err
	}
	d := NewDecoder(resp)
	res := server.PrivateNNResult{SupersetSize: int(d.U32())}
	res.Candidates = decodeObjects(d)
	return res, d.Err()
}

// PublicCount runs a public probabilistic count.
func (dc *DatabaseClient) PublicCount(query geo.Rect) (server.PublicRangeCountResult, error) {
	return dc.PublicCountCtx(context.Background(), query)
}

// PublicCountCtx is PublicCount under a context (deadline, trace).
func (dc *DatabaseClient) PublicCountCtx(ctx context.Context, query geo.Rect) (server.PublicRangeCountResult, error) {
	var e Encoder
	e.Rect(query)
	resp, err := dc.c.CallCtx(ctx, MsgPublicCount, e.Bytes())
	if err != nil {
		return server.PublicRangeCountResult{}, err
	}
	d := NewDecoder(resp)
	res := decodeCountResult(d)
	return res, d.Err()
}

// BatchQuery submits a mixed batch of range/NN/count queries for shared
// execution and returns per-entry results in input order. Per-entry
// failures come back as *server.BatchEntryError values inside the items;
// the call-level error covers transport and framing only.
func (dc *DatabaseClient) BatchQuery(entries []server.BatchEntry) (server.BatchResult, error) {
	return dc.BatchQueryCtx(context.Background(), entries)
}

// BatchQueryCtx is BatchQuery under a context (deadline, trace).
func (dc *DatabaseClient) BatchQueryCtx(ctx context.Context, entries []server.BatchEntry) (server.BatchResult, error) {
	var e Encoder
	encodeBatchEntries(&e, entries)
	resp, err := dc.c.CallCtx(ctx, MsgBatchQuery, e.Bytes())
	if err != nil {
		return server.BatchResult{}, err
	}
	res, err := decodeBatchResult(NewDecoder(resp))
	if err != nil {
		return server.BatchResult{}, err
	}
	// The wire carries only each failed entry's cause; restore the kind
	// from the request so client-side errors print like server-side ones.
	// The Err != nil guard keeps errors.As — whose target pointer escapes
	// — off the all-success path entirely.
	for i := range res.Items {
		if res.Items[i].Err == nil {
			continue
		}
		var bee *server.BatchEntryError
		if errors.As(res.Items[i].Err, &bee) && i < len(entries) {
			bee.Kind = entries[i].Kind
		}
	}
	return res, nil
}

// PublicNN runs a public nearest-neighbor query over private data.
func (dc *DatabaseClient) PublicNN(q server.PublicNNQuery) (server.PublicNNResult, error) {
	var e Encoder
	e.Point(q.From).U32(uint32(q.Samples)).U64(q.Seed)
	resp, err := dc.c.Call(MsgPublicNN, e.Bytes())
	if err != nil {
		return server.PublicNNResult{}, err
	}
	d := NewDecoder(resp)
	res := server.PublicNNResult{CandidateRegions: make(map[uint64]geo.Rect)}
	res.PrunedCount = int(d.U32())
	n := int(d.U32())
	for i := 0; i < n; i++ {
		id := d.U64()
		p := d.F64()
		r := d.Rect()
		res.Candidates = append(res.Candidates, probNN(id, p))
		res.CandidateRegions[id] = r
	}
	if len(res.Candidates) > 0 {
		res.Best = res.Candidates[0]
	}
	return res, d.Err()
}

// RegisterContinuousCount installs a standing count query remotely.
func (dc *DatabaseClient) RegisterContinuousCount(query geo.Rect) (uint64, error) {
	var e Encoder
	e.Rect(query)
	resp, err := dc.c.Call(MsgRegContCount, e.Bytes())
	if err != nil {
		return 0, err
	}
	d := NewDecoder(resp)
	id := d.U64()
	return id, d.Err()
}

// ContinuousCount reads a standing query's maintained answer.
func (dc *DatabaseClient) ContinuousCount(id uint64) (server.ContinuousCountAnswer, error) {
	var e Encoder
	e.U64(id)
	resp, err := dc.c.Call(MsgContCount, e.Bytes())
	if err != nil {
		return server.ContinuousCountAnswer{}, err
	}
	d := NewDecoder(resp)
	ans := server.ContinuousCountAnswer{
		Expected: d.F64(),
		Lo:       int(d.U32()),
		Hi:       int(d.U32()),
	}
	return ans, d.Err()
}

// UnregisterContinuousCount removes a standing query.
func (dc *DatabaseClient) UnregisterContinuousCount(id uint64) error {
	var e Encoder
	e.U64(id)
	_, err := dc.c.Call(MsgUnregContCount, e.Bytes())
	return err
}

// UpdateMoving upserts a moving public object (exact location: public data).
func (dc *DatabaseClient) UpdateMoving(id uint64, loc geo.Point) error {
	var e Encoder
	e.U64(id).Point(loc)
	_, err := dc.c.Call(MsgUpdateMoving, e.Bytes())
	return err
}

// Stats returns (stationary objects, private users).
func (dc *DatabaseClient) Stats() (stationary, private int, err error) {
	resp, err := dc.c.Call(MsgStats, nil)
	if err != nil {
		return 0, 0, err
	}
	d := NewDecoder(resp)
	return int(d.U32()), int(d.U32()), d.Err()
}
