package protocol

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/codec"
	"repro/internal/geo"
	"repro/internal/prob"
	"repro/internal/server"
)

// ServeDatabase exposes a server.Server over TCP. The service accepts only
// region-typed private updates — exactly the paper's trust boundary. Pass
// WithMetrics to instrument the wire layer and answer MsgMetrics.
func ServeDatabase(addr string, srv *server.Server, logf func(string, ...interface{}), opts ...Option) (*Service, error) {
	h := &dbHandler{dbService: dbService{name: "database", be: localDB{srv}}, srv: srv}
	return Serve(addr, h.handle, logf, opts...)
}

// dbBackend is the tier behind the database wire protocol: what a single
// server and a router over many shards both do. *router.Router satisfies
// it as is; a *server.Server does through localDB.
type dbBackend interface {
	UpdatePrivateCtx(ctx context.Context, id uint64, region geo.Rect) error
	RemovePrivateCtx(ctx context.Context, id uint64) error
	UpdateMovingCtx(ctx context.Context, id uint64, loc geo.Point) error
	RemoveMovingCtx(ctx context.Context, id uint64) (bool, error)
	LoadStationaryCtx(ctx context.Context, objs []server.PublicObject) error
	PrivateRangeCtx(ctx context.Context, q server.PrivateRangeQuery) ([]server.PublicObject, error)
	PrivateNNCtx(ctx context.Context, q server.PrivateNNQuery) (server.PrivateNNResult, error)
	PublicCountCtx(ctx context.Context, q server.PublicRangeCountQuery) (server.PublicRangeCountResult, error)
	BatchQueryCtx(ctx context.Context, entries []server.BatchEntry) (server.BatchResult, error)
	StatsCtx(ctx context.Context) (stationary, private int, err error)
}

// localDB adapts a server.Server to dbBackend: the calls that cannot fail
// or take no context locally gain the signature the routed tier needs.
type localDB struct{ *server.Server }

func (l localDB) RemovePrivateCtx(_ context.Context, id uint64) error {
	l.RemovePrivate(id)
	return nil
}
func (l localDB) UpdateMovingCtx(_ context.Context, id uint64, loc geo.Point) error {
	return l.UpdateMoving(id, loc)
}
func (l localDB) RemoveMovingCtx(_ context.Context, id uint64) (bool, error) {
	return l.RemoveMoving(id), nil
}
func (l localDB) LoadStationaryCtx(_ context.Context, objs []server.PublicObject) error {
	return l.LoadStationary(objs)
}
func (l localDB) PublicCountCtx(ctx context.Context, q server.PublicRangeCountQuery) (server.PublicRangeCountResult, error) {
	return l.PublicRangeCountCtx(ctx, q)
}
func (l localDB) BatchQueryCtx(ctx context.Context, entries []server.BatchEntry) (server.BatchResult, error) {
	return l.Server.BatchQueryCtx(ctx, entries), nil
}
func (l localDB) StatsCtx(context.Context) (stationary, private int, err error) {
	return l.StationaryCount(), l.PrivateUserCount(), nil
}

// dbService answers the message types lbsd and lbsrouter both answer,
// over the backend that makes them differ. Each service's own handler
// takes its own types first and falls through to this one.
type dbService struct {
	name string // the tier, as the unknown-type error names it
	be   dbBackend
}

func (s *dbService) handle(ctx context.Context, typ byte, payload []byte) ([]byte, error) {
	d := codec.NewDecoder(payload)
	var e codec.Encoder
	switch typ {
	case MsgUpdatePrivate:
		id, region := decodeUpdatePrivate(d)
		if d.Err() != nil {
			return nil, d.Err()
		}
		return nil, s.be.UpdatePrivateCtx(ctx, id, region)

	case MsgRemovePrivate:
		id := d.U64()
		if d.Err() != nil {
			return nil, d.Err()
		}
		return nil, s.be.RemovePrivateCtx(ctx, id)

	case MsgLoadStationary:
		objs := decodeObjects(d)
		if d.Err() != nil {
			return nil, d.Err()
		}
		return nil, s.be.LoadStationaryCtx(ctx, objs)

	case MsgPrivateRange:
		q := decodeRangeQuery(d)
		if d.Err() != nil {
			return nil, d.Err()
		}
		objs, err := s.be.PrivateRangeCtx(ctx, q)
		if err != nil {
			return nil, err
		}
		encodeObjects(&e, objs)

	case MsgPrivateNN:
		q := decodeNNQuery(d)
		if d.Err() != nil {
			return nil, d.Err()
		}
		res, err := s.be.PrivateNNCtx(ctx, q)
		if err != nil {
			return nil, err
		}
		encodeNNResult(&e, res)

	case MsgPublicCount:
		q := server.PublicRangeCountQuery{Query: d.Rect()}
		if d.Err() != nil {
			return nil, d.Err()
		}
		res, err := s.be.PublicCountCtx(ctx, q)
		if err != nil {
			return nil, err
		}
		encodeCountResult(&e, res)

	case MsgBatchQuery:
		entries, err := decodeBatchEntries(d)
		if err != nil {
			return nil, err
		}
		res, err := s.be.BatchQueryCtx(ctx, entries)
		if err != nil {
			return nil, err
		}
		encodeBatchResult(&e, entries, res)

	case MsgUpdateMoving:
		id, loc := decodeUpdateMoving(d)
		if d.Err() != nil {
			return nil, d.Err()
		}
		return nil, s.be.UpdateMovingCtx(ctx, id, loc)

	case MsgRemoveMoving:
		id := d.U64()
		if d.Err() != nil {
			return nil, d.Err()
		}
		existed, err := s.be.RemoveMovingCtx(ctx, id)
		if err != nil {
			return nil, err
		}
		e.Bool(existed)

	case MsgStats:
		stationary, private, err := s.be.StatsCtx(ctx)
		if err != nil {
			return nil, err
		}
		encodeStats(&e, stationary, private)

	default:
		return nil, fmt.Errorf("protocol: %s service: unknown message type %d", s.name, typ)
	}
	return e.Bytes(), nil
}

// dbHandler is lbsd's handler: the single-node message types (public NN,
// continuous counts) and the shard-local partial types a router forwards,
// then everything a router answers too.
type dbHandler struct {
	dbService
	srv *server.Server
}

func (h *dbHandler) handle(ctx context.Context, typ byte, payload []byte) ([]byte, error) {
	d := codec.NewDecoder(payload)
	var e codec.Encoder
	switch typ {
	case MsgPublicNN:
		q := decodePublicNNQuery(d)
		if d.Err() != nil {
			return nil, d.Err()
		}
		// Clamp the Monte-Carlo effort a remote peer can demand.
		const maxSamples = 100000
		if q.Samples > maxSamples {
			q.Samples = maxSamples
		}
		res, err := h.srv.PublicNNCtx(ctx, q)
		if err != nil {
			return nil, err
		}
		encodePublicNNResult(&e, res)

	case MsgRegContCount:
		query := d.Rect()
		if d.Err() != nil {
			return nil, d.Err()
		}
		id, err := h.srv.RegisterContinuousCount(query)
		if err != nil {
			return nil, err
		}
		e.U64(id)

	case MsgContCount:
		id := d.U64()
		if d.Err() != nil {
			return nil, d.Err()
		}
		ans, ok := h.srv.ContinuousCount(id)
		if !ok {
			return nil, fmt.Errorf("protocol: unknown continuous query %d", id)
		}
		encodeContAnswer(&e, ans)

	case MsgUnregContCount:
		id := d.U64()
		if d.Err() != nil {
			return nil, d.Err()
		}
		if !h.srv.UnregisterContinuousCount(id) {
			return nil, fmt.Errorf("protocol: unknown continuous query %d", id)
		}

	case MsgNNParts:
		q := decodeNNQuery(d)
		if d.Err() != nil {
			return nil, d.Err()
		}
		parts, err := h.srv.PrivateNNPartsCtx(ctx, q)
		if err != nil {
			return nil, err
		}
		encodeNNParts(&e, parts)

	case MsgCountProbs:
		q := server.PublicRangeCountQuery{Query: d.Rect()}
		if d.Err() != nil {
			return nil, d.Err()
		}
		pairs, err := h.srv.PublicCountProbsCtx(ctx, q)
		if err != nil {
			return nil, err
		}
		encodeUserProbs(&e, pairs)

	case MsgShardBatch:
		subs, err := decodeSubQueries(d)
		if err != nil {
			return nil, err
		}
		encodeSubResults(&e, evalSubQueries(ctx, h.srv, subs))

	default:
		return h.dbService.handle(ctx, typ, payload)
	}
	return e.Bytes(), nil
}

// encodeUpdatePrivate appends the MsgUpdatePrivate body: a user id and
// the cloaked region that is all the database tier ever learns of them.
func encodeUpdatePrivate(e *codec.Encoder, id uint64, region geo.Rect) { e.U64(id).Rect(region) }
func decodeUpdatePrivate(d *codec.Decoder) (uint64, geo.Rect)          { return d.U64(), d.Rect() }

// encodeUpdateMoving appends the MsgUpdateMoving body: a moving public
// object's id and location (public data, not a user's).
func encodeUpdateMoving(e *codec.Encoder, id uint64, loc geo.Point) { e.U64(id).Point(loc) }
func decodeUpdateMoving(d *codec.Decoder) (uint64, geo.Point)       { return d.U64(), d.Point() }

// encodeStats appends the MsgStats reply.
func encodeStats(e *codec.Encoder, stationary, private int) {
	e.U32(uint32(stationary)).U32(uint32(private))
}

// decodeStats is the inverse of encodeStats.
func decodeStats(d *codec.Decoder) (stationary, private int) { return int(d.U32()), int(d.U32()) }

// encodeObjects appends an object list: the MsgLoadStationary body, the
// MsgPrivateRange reply, and the list inside every NN and batch result.
func encodeObjects(e *codec.Encoder, objs []server.PublicObject) {
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

// decodeObjects is the inverse of encodeObjects.
func decodeObjects(d *codec.Decoder) []server.PublicObject {
	n := d.Count(int(d.U32()), 26)
	objs := make([]server.PublicObject, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		objs = append(objs, server.PublicObject{ID: d.U64(), Class: d.Str(), Loc: d.Point()})
	}
	if d.Err() != nil {
		return nil
	}
	return objs
}

// encodeRangeQuery appends a private range query: the MsgPrivateRange
// body and the range arm of a batch entry.
func encodeRangeQuery(e *codec.Encoder, q server.PrivateRangeQuery) {
	e.Rect(q.Region).F64(q.Radius).Str(q.Class).U8(byte(q.Mode))
}

// decodeRangeQuery is the inverse of encodeRangeQuery.
func decodeRangeQuery(d *codec.Decoder) server.PrivateRangeQuery {
	return server.PrivateRangeQuery{
		Region: d.Rect(),
		Radius: d.F64(),
		Class:  d.Str(),
		Mode:   server.RangeMode(d.U8()),
	}
}

// encodeNNQuery appends a private NN query: the MsgPrivateNN and
// MsgNNParts body and the NN arm of a batch entry.
func encodeNNQuery(e *codec.Encoder, q server.PrivateNNQuery) { e.Rect(q.Region).Str(q.Class) }

// decodeNNQuery is the inverse of encodeNNQuery.
func decodeNNQuery(d *codec.Decoder) server.PrivateNNQuery {
	return server.PrivateNNQuery{Region: d.Rect(), Class: d.Str()}
}

// encodeNNResult appends a private NN answer: the MsgPrivateNN reply and
// the NN arm of a batch result.
func encodeNNResult(e *codec.Encoder, res server.PrivateNNResult) {
	e.U32(uint32(res.SupersetSize))
	encodeObjects(e, res.Candidates)
}

// decodeNNResult is the inverse of encodeNNResult.
func decodeNNResult(d *codec.Decoder) server.PrivateNNResult {
	return server.PrivateNNResult{SupersetSize: int(d.U32()), Candidates: decodeObjects(d)}
}

// encodeCountResult appends a PublicRangeCountResult: the MsgPublicCount
// reply and the count arm of a batch result.
func encodeCountResult(e *codec.Encoder, res server.PublicRangeCountResult) {
	e.F64(res.Answer.Expected)
	e.U32(uint32(res.Answer.Lo)).U32(uint32(res.Answer.Hi))
	e.U32(uint32(res.NaiveCount))
	e.U32(uint32(len(res.Answer.PDF)))
	for _, p := range res.Answer.PDF {
		e.F64(p)
	}
}

// decodeCountResult is the inverse of encodeCountResult.
func decodeCountResult(d *codec.Decoder) server.PublicRangeCountResult {
	var res server.PublicRangeCountResult
	res.Answer.Expected = d.F64()
	res.Answer.Lo = int(d.U32())
	res.Answer.Hi = int(d.U32())
	res.NaiveCount = int(d.U32())
	n := d.Count(int(d.U32()), 8)
	res.Answer.PDF = make([]float64, 0, n)
	for i := 0; i < n; i++ {
		res.Answer.PDF = append(res.Answer.PDF, d.F64())
	}
	return res
}

// encodePublicNNQuery appends the MsgPublicNN body.
func encodePublicNNQuery(e *codec.Encoder, q server.PublicNNQuery) {
	e.Point(q.From).U32(uint32(q.Samples)).U64(q.Seed)
}

// decodePublicNNQuery is the inverse of encodePublicNNQuery.
func decodePublicNNQuery(d *codec.Decoder) server.PublicNNQuery {
	return server.PublicNNQuery{From: d.Point(), Samples: int(d.U32()), Seed: d.U64()}
}

// encodePublicNNResult appends the MsgPublicNN reply: the pruned count,
// then each candidate with its probability and cloaked region.
func encodePublicNNResult(e *codec.Encoder, res server.PublicNNResult) {
	e.U32(uint32(res.PrunedCount))
	e.U32(uint32(len(res.Candidates)))
	for _, c := range res.Candidates {
		e.U64(c.ID).F64(c.Prob).Rect(res.CandidateRegions[c.ID])
	}
}

// decodePublicNNResult is the inverse of encodePublicNNResult. A short
// payload yields no candidates at all.
func decodePublicNNResult(d *codec.Decoder) server.PublicNNResult {
	res := server.PublicNNResult{PrunedCount: int(d.U32())}
	n := d.Count(int(d.U32()), 48)
	res.CandidateRegions = make(map[uint64]geo.Rect, n)
	for i := 0; i < n; i++ {
		c := prob.NNProb{ID: d.U64(), Prob: d.F64()}
		res.Candidates = append(res.Candidates, c)
		res.CandidateRegions[c.ID] = d.Rect()
	}
	if len(res.Candidates) > 0 {
		res.Best = res.Candidates[0]
	}
	return res
}

// encodeContAnswer appends the MsgContCount reply.
func encodeContAnswer(e *codec.Encoder, ans server.ContinuousCountAnswer) {
	e.F64(ans.Expected).U32(uint32(ans.Lo)).U32(uint32(ans.Hi))
}

// decodeContAnswer is the inverse of encodeContAnswer.
func decodeContAnswer(d *codec.Decoder) server.ContinuousCountAnswer {
	return server.ContinuousCountAnswer{Expected: d.F64(), Lo: int(d.U32()), Hi: int(d.U32())}
}

// maxBatchEntries bounds a MsgBatchQuery frame: large enough for any
// realistic batch window, small enough that a hostile peer
// cannot turn one frame into an unbounded amount of work.
const maxBatchEntries = 4096

// encodeBatchEntry appends one batch query: its kind, then that kind's
// single-query body. Shared by MsgBatchQuery and MsgShardBatch.
func encodeBatchEntry(e *codec.Encoder, be server.BatchEntry) {
	e.U8(byte(be.Kind))
	switch be.Kind {
	case server.BatchPrivateRange:
		encodeRangeQuery(e, be.Range)
	case server.BatchPrivateNN:
		encodeNNQuery(e, be.NN)
	case server.BatchPublicCount:
		e.Rect(be.Count.Query)
	}
}

// decodeBatchEntry is the inverse of encodeBatchEntry. An unknown kind
// byte makes the remaining layout unparseable and reads as !ok: the caller
// fails the whole frame — per-entry failure semantics apply to well-formed
// frames whose query *parameters* are invalid, which the server reports
// per entry.
func decodeBatchEntry(d *codec.Decoder) (be server.BatchEntry, ok bool) {
	be.Kind = server.BatchKind(d.U8())
	switch be.Kind {
	case server.BatchPrivateRange:
		be.Range = decodeRangeQuery(d)
	case server.BatchPrivateNN:
		be.NN = decodeNNQuery(d)
	case server.BatchPublicCount:
		be.Count.Query = d.Rect()
	default:
		return be, false
	}
	return be, true
}

// encodeBatchEntries appends the MsgBatchQuery body.
func encodeBatchEntries(e *codec.Encoder, entries []server.BatchEntry) {
	e.Grow(4 + 48*len(entries))
	e.U32(uint32(len(entries)))
	for _, be := range entries {
		encodeBatchEntry(e, be)
	}
}

// decodeBatchEntries is the inverse of encodeBatchEntries.
func decodeBatchEntries(d *codec.Decoder) ([]server.BatchEntry, error) {
	n := int(d.U32())
	if n > maxBatchEntries {
		return nil, fmt.Errorf("protocol: batch of %d entries exceeds the %d-entry cap", n, maxBatchEntries)
	}
	// Every entry needs ≥ 33 bytes (kind + rectangle).
	n = d.Count(n, 33)
	entries := make([]server.BatchEntry, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		be, ok := decodeBatchEntry(d)
		if !ok {
			return nil, fmt.Errorf("protocol: unknown batch query kind %d at entry %d", byte(be.Kind), i)
		}
		entries = append(entries, be)
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	return entries, nil
}

// encodeBatchResult appends the MsgBatchQuery reply: a typed
// MsgBatchResult sub-frame so the response is self-describing on the
// wire. Each entry carries a status byte and its kind tag, then the same
// per-kind encoding the single-query responses use.
func encodeBatchResult(e *codec.Encoder, entries []server.BatchEntry, res server.BatchResult) {
	// Pre-scan the exact response size so the whole frame is built in one
	// allocation. Failed entries are skipped (error strings are rare and
	// cheap to absorb through Grow's geometric fallback).
	size := 9
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
	e.Grow(size)
	e.U8(MsgBatchResult)
	e.U32(uint32(res.SharedHits))
	e.U32(uint32(len(res.Items)))
	for i, it := range res.Items {
		e.Bool(it.Err != nil)
		if it.Err != nil {
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
		kind := entries[i].Kind
		e.U8(byte(kind))
		switch kind {
		case server.BatchPrivateRange:
			encodeObjects(e, it.Range)
		case server.BatchPrivateNN:
			encodeNNResult(e, it.NN)
		case server.BatchPublicCount:
			encodeCountResult(e, it.Count)
		}
	}
}

// decodeBatchResult is the inverse of encodeBatchResult.
func decodeBatchResult(d *codec.Decoder) (server.BatchResult, error) {
	if tag := d.U8(); d.Err() == nil && tag != MsgBatchResult {
		return server.BatchResult{}, fmt.Errorf("protocol: batch response tagged %d, want %d", tag, MsgBatchResult)
	}
	var res server.BatchResult
	res.SharedHits = int(d.U32())
	n := d.Count(int(d.U32()), 2)
	res.Items = make([]server.BatchItemResult, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		var it server.BatchItemResult
		if d.Bool() {
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
			it.NN = decodeNNResult(d)
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
	var e codec.Encoder
	encodeUpdatePrivate(&e, id, region)
	_, err := dc.c.CallCtx(ctx, MsgUpdatePrivate, e.Bytes())
	return err
}

// RemovePrivate removes a user's region.
func (dc *DatabaseClient) RemovePrivate(id uint64) error {
	return dc.RemovePrivateCtx(context.Background(), id)
}

// RemovePrivateCtx is RemovePrivate under a context (deadline, trace).
func (dc *DatabaseClient) RemovePrivateCtx(ctx context.Context, id uint64) error {
	var e codec.Encoder
	e.U64(id)
	_, err := dc.c.CallCtx(ctx, MsgRemovePrivate, e.Bytes())
	return err
}

// LoadStationary bulk-loads public objects.
func (dc *DatabaseClient) LoadStationary(objs []server.PublicObject) error {
	return dc.LoadStationaryCtx(context.Background(), objs)
}

// LoadStationaryCtx is LoadStationary under a context (deadline, trace).
func (dc *DatabaseClient) LoadStationaryCtx(ctx context.Context, objs []server.PublicObject) error {
	var e codec.Encoder
	encodeObjects(&e, objs)
	_, err := dc.c.CallCtx(ctx, MsgLoadStationary, e.Bytes())
	return err
}

// PrivateRange runs a private range query.
func (dc *DatabaseClient) PrivateRange(q server.PrivateRangeQuery) ([]server.PublicObject, error) {
	return dc.PrivateRangeCtx(context.Background(), q)
}

// PrivateRangeCtx is PrivateRange under a context (deadline, trace).
func (dc *DatabaseClient) PrivateRangeCtx(ctx context.Context, q server.PrivateRangeQuery) ([]server.PublicObject, error) {
	var e codec.Encoder
	encodeRangeQuery(&e, q)
	d := dc.c.exchange(ctx, MsgPrivateRange, e.Bytes())
	objs := decodeObjects(&d)
	return objs, d.Err()
}

// PrivateNN runs a private nearest-neighbor query.
func (dc *DatabaseClient) PrivateNN(q server.PrivateNNQuery) (server.PrivateNNResult, error) {
	return dc.PrivateNNCtx(context.Background(), q)
}

// PrivateNNCtx is PrivateNN under a context (deadline, trace).
func (dc *DatabaseClient) PrivateNNCtx(ctx context.Context, q server.PrivateNNQuery) (server.PrivateNNResult, error) {
	var e codec.Encoder
	encodeNNQuery(&e, q)
	d := dc.c.exchange(ctx, MsgPrivateNN, e.Bytes())
	res := decodeNNResult(&d)
	return res, d.Err()
}

// PublicCount runs a public probabilistic count.
func (dc *DatabaseClient) PublicCount(query geo.Rect) (server.PublicRangeCountResult, error) {
	return dc.PublicCountCtx(context.Background(), query)
}

// PublicCountCtx is PublicCount under a context (deadline, trace).
func (dc *DatabaseClient) PublicCountCtx(ctx context.Context, query geo.Rect) (server.PublicRangeCountResult, error) {
	var e codec.Encoder
	e.Rect(query)
	d := dc.c.exchange(ctx, MsgPublicCount, e.Bytes())
	res := decodeCountResult(&d)
	return res, d.Err()
}

// BatchQuery submits a mixed batch of range/NN/count queries in one frame
// and returns per-entry results in input order. Per-entry
// failures come back as *server.BatchEntryError values inside the items;
// the call-level error covers transport and framing only.
func (dc *DatabaseClient) BatchQuery(entries []server.BatchEntry) (server.BatchResult, error) {
	return dc.BatchQueryCtx(context.Background(), entries)
}

// BatchQueryCtx is BatchQuery under a context (deadline, trace).
func (dc *DatabaseClient) BatchQueryCtx(ctx context.Context, entries []server.BatchEntry) (server.BatchResult, error) {
	var e codec.Encoder
	encodeBatchEntries(&e, entries)
	d := dc.c.exchange(ctx, MsgBatchQuery, e.Bytes())
	res, err := decodeBatchResult(&d)
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
	var e codec.Encoder
	encodePublicNNQuery(&e, q)
	d := dc.c.exchange(context.Background(), MsgPublicNN, e.Bytes())
	res := decodePublicNNResult(&d)
	return res, d.Err()
}

// RegisterContinuousCount installs a standing count query remotely.
func (dc *DatabaseClient) RegisterContinuousCount(query geo.Rect) (uint64, error) {
	var e codec.Encoder
	e.Rect(query)
	d := dc.c.exchange(context.Background(), MsgRegContCount, e.Bytes())
	id := d.U64()
	return id, d.Err()
}

// ContinuousCount reads a standing query's maintained answer.
func (dc *DatabaseClient) ContinuousCount(id uint64) (server.ContinuousCountAnswer, error) {
	var e codec.Encoder
	e.U64(id)
	d := dc.c.exchange(context.Background(), MsgContCount, e.Bytes())
	ans := decodeContAnswer(&d)
	return ans, d.Err()
}

// UnregisterContinuousCount removes a standing query.
func (dc *DatabaseClient) UnregisterContinuousCount(id uint64) error {
	var e codec.Encoder
	e.U64(id)
	_, err := dc.c.Call(MsgUnregContCount, e.Bytes())
	return err
}

// UpdateMoving upserts a moving public object (exact location: public data).
func (dc *DatabaseClient) UpdateMoving(id uint64, loc geo.Point) error {
	return dc.UpdateMovingCtx(context.Background(), id, loc)
}

// UpdateMovingCtx is UpdateMoving under a context (deadline, trace).
func (dc *DatabaseClient) UpdateMovingCtx(ctx context.Context, id uint64, loc geo.Point) error {
	var e codec.Encoder
	encodeUpdateMoving(&e, id, loc)
	_, err := dc.c.CallCtx(ctx, MsgUpdateMoving, e.Bytes())
	return err
}

// RemoveMoving deletes a moving object; the result reports whether it
// existed.
func (dc *DatabaseClient) RemoveMoving(id uint64) (bool, error) {
	return dc.RemoveMovingCtx(context.Background(), id)
}

// RemoveMovingCtx is RemoveMoving under a context (deadline, trace).
func (dc *DatabaseClient) RemoveMovingCtx(ctx context.Context, id uint64) (bool, error) {
	var e codec.Encoder
	e.U64(id)
	d := dc.c.exchange(ctx, MsgRemoveMoving, e.Bytes())
	existed := d.Bool()
	return existed, d.Err()
}

// Stats returns (stationary objects, private users).
func (dc *DatabaseClient) Stats() (stationary, private int, err error) {
	return dc.StatsCtx(context.Background())
}

// StatsCtx is Stats under a context (deadline, trace).
func (dc *DatabaseClient) StatsCtx(ctx context.Context) (stationary, private int, err error) {
	d := dc.c.exchange(ctx, MsgStats, nil)
	stationary, private = decodeStats(&d)
	return stationary, private, d.Err()
}
