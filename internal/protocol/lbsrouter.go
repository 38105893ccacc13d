package protocol

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/geo"
	"repro/internal/router"
	"repro/internal/server"
)

// DatabaseClient implements the router's shard surface, so a router can
// be wired straight onto dialed lbsd links.
var _ router.Shard = (*DatabaseClient)(nil)

// ServeRouter exposes a router.Router over TCP speaking the database
// service's wire protocol: clients (the anonymizer's forwarder, admin
// tools, the load generators) dial a routed tier exactly as they dial a
// single lbsd. Query, update and stats messages scatter through the
// router; messages whose semantics are inherently single-node (public NN,
// continuous queries) answer with a typed unsupported error. MsgShardMap
// reports the tile→shard topology.
func ServeRouter(addr string, rt *router.Router, logf func(string, ...interface{}), opts ...Option) (*Service, error) {
	h := &routerHandler{rt: rt}
	return Serve(addr, h.handle, logf, opts...)
}

type routerHandler struct {
	rt *router.Router
}

func (h *routerHandler) handle(ctx context.Context, typ byte, payload []byte) ([]byte, error) {
	resp, err := h.serve(ctx, typ, payload)
	if err != nil && errors.Is(err, ErrRemote) {
		// The failure came back over a shard link, already wrapped once as
		// "protocol: remote error: <message>". Re-raise just the message:
		// the router's own service wraps it again on the way out, so a
		// routed client reads exactly the text a single-server client would.
		err = errors.New(strings.TrimPrefix(err.Error(), ErrRemote.Error()+": "))
	}
	return resp, err
}

func (h *routerHandler) serve(ctx context.Context, typ byte, payload []byte) ([]byte, error) {
	d := NewDecoder(payload)
	switch typ {
	case MsgUpdatePrivate:
		id := d.U64()
		region := d.Rect()
		if d.Err() != nil {
			return nil, d.Err()
		}
		return nil, h.rt.UpdatePrivateCtx(ctx, id, region)

	case MsgRemovePrivate:
		id := d.U64()
		if d.Err() != nil {
			return nil, d.Err()
		}
		return nil, h.rt.RemovePrivateCtx(ctx, id)

	case MsgLoadStationary:
		objs := decodeObjects(d)
		if d.Err() != nil {
			return nil, d.Err()
		}
		return nil, h.rt.LoadStationaryCtx(ctx, objs)

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
		objs, err := h.rt.PrivateRangeCtx(ctx, q)
		if err != nil {
			return nil, err
		}
		return encodeObjects(objs), nil

	case MsgPrivateNN:
		q := server.PrivateNNQuery{Region: d.Rect(), Class: d.Str()}
		if d.Err() != nil {
			return nil, d.Err()
		}
		res, err := h.rt.PrivateNNCtx(ctx, q)
		if err != nil {
			return nil, err
		}
		var e Encoder
		e.U32(uint32(res.SupersetSize))
		e.buf = append(e.buf, encodeObjects(res.Candidates)...)
		return e.Bytes(), nil

	case MsgPublicCount:
		q := server.PublicRangeCountQuery{Query: d.Rect()}
		if d.Err() != nil {
			return nil, d.Err()
		}
		res, err := h.rt.PublicCountCtx(ctx, q)
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
		res, err := h.rt.BatchQueryCtx(ctx, entries)
		if err != nil {
			return nil, err
		}
		return encodeBatchResult(entries, res), nil

	case MsgUpdateMoving:
		id := d.U64()
		loc := d.Point()
		if d.Err() != nil {
			return nil, d.Err()
		}
		return nil, h.rt.UpdateMovingCtx(ctx, id, loc)

	case MsgRemoveMoving:
		id := d.U64()
		if d.Err() != nil {
			return nil, d.Err()
		}
		existed, err := h.rt.RemoveMovingCtx(ctx, id)
		if err != nil {
			return nil, err
		}
		var e Encoder
		e.U8(boolByte(existed))
		return e.Bytes(), nil

	case MsgStats:
		stationary, private, err := h.rt.StatsCtx(ctx)
		if err != nil {
			return nil, err
		}
		var e Encoder
		e.U32(uint32(stationary))
		e.U32(uint32(private))
		return e.Bytes(), nil

	case MsgShardMap:
		return encodeShardMap(h.rt.Topology()), nil

	case MsgPublicNN, MsgRegContCount, MsgContCount, MsgUnregContCount,
		MsgNNParts, MsgCountProbs, MsgShardBatch:
		return nil, fmt.Errorf("protocol: router service: %s not supported by the router tier", MessageName(typ))

	default:
		return nil, fmt.Errorf("protocol: router service: unknown message type %d", typ)
	}
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// encodeShardMap serializes a topology: world, grid dimensions, shard
// addresses, then the tile→shard ownership table as uint16s.
func encodeShardMap(t router.Topology) []byte {
	var e Encoder
	e.Rect(t.World)
	e.U32(uint32(t.Cols)).U32(uint32(t.Rows))
	e.U32(uint32(t.Shards))
	for i := 0; i < t.Shards; i++ {
		addr := ""
		if i < len(t.Addrs) {
			addr = t.Addrs[i]
		}
		e.Str(addr)
	}
	e.U32(uint32(len(t.Owners)))
	for _, o := range t.Owners {
		e.U16(uint16(o))
	}
	return e.Bytes()
}

// decodeShardMap parses a topology, rejecting inconsistent frames: the
// owner table must match the grid size and every owner must name one of
// the declared shards.
func decodeShardMap(d *Decoder) (router.Topology, error) {
	var t router.Topology
	t.World = d.Rect()
	t.Cols = int(d.U32())
	t.Rows = int(d.U32())
	t.Shards = int(d.U32())
	if d.Err() != nil {
		return router.Topology{}, d.Err()
	}
	if t.Cols < 1 || t.Rows < 1 || t.Cols > 256 || t.Rows > 256 {
		return router.Topology{}, fmt.Errorf("protocol: shard map grid %dx%d out of range", t.Cols, t.Rows)
	}
	if t.Shards < 1 || t.Shards > router.MaxShards {
		return router.Topology{}, fmt.Errorf("protocol: shard map with %d shards out of range", t.Shards)
	}
	t.Addrs = make([]string, 0, t.Shards)
	for i := 0; i < t.Shards && d.Err() == nil; i++ {
		t.Addrs = append(t.Addrs, d.Str())
	}
	n := int(d.U32())
	if d.Err() == nil && n != t.Cols*t.Rows {
		return router.Topology{}, fmt.Errorf("protocol: shard map owner table has %d entries for a %dx%d grid", n, t.Cols, t.Rows)
	}
	t.Owners = make([]int, 0, capHint(n, 2, d))
	for i := 0; i < n && d.Err() == nil; i++ {
		o := int(d.U16())
		if o >= t.Shards {
			return router.Topology{}, fmt.Errorf("protocol: shard map tile %d owned by unknown shard %d", i, o)
		}
		t.Owners = append(t.Owners, o)
	}
	if d.Err() != nil {
		return router.Topology{}, d.Err()
	}
	return t, nil
}

// encodeSubQueries serializes a forwarded sub-batch: each entry keeps its
// index in the original batch, followed by the same per-kind encoding a
// direct batch request uses.
func encodeSubQueries(e *Encoder, subs []router.SubQuery) {
	e.U32(uint32(len(subs)))
	for _, sq := range subs {
		e.U32(uint32(sq.Index))
		be := sq.Entry
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

// decodeSubQueries parses a forwarded sub-batch. Like the direct batch
// decoder, an unknown kind byte makes the rest unparseable and fails the
// whole frame.
func decodeSubQueries(d *Decoder) ([]router.SubQuery, error) {
	n := int(d.U32())
	if n > maxBatchEntries {
		return nil, fmt.Errorf("protocol: sub-batch of %d entries exceeds the %d-entry cap", n, maxBatchEntries)
	}
	// Each sub-query needs ≥ 37 bytes (index + kind + rectangle).
	subs := make([]router.SubQuery, 0, capHint(n, 37, d))
	for i := 0; i < n && d.Err() == nil; i++ {
		sq := router.SubQuery{Index: int(d.U32())}
		kind := server.BatchKind(d.U8())
		be := server.BatchEntry{Kind: kind}
		switch kind {
		case server.BatchPrivateRange:
			be.Range = server.PrivateRangeQuery{
				Region: d.Rect(),
				Radius: d.F64(),
				Class:  d.Str(),
				Mode:   server.RangeMode(d.U8()),
			}
		case server.BatchPrivateNN:
			be.NN = server.PrivateNNQuery{Region: d.Rect(), Class: d.Str()}
		case server.BatchPublicCount:
			be.Count = server.PublicRangeCountQuery{Query: d.Rect()}
		default:
			return nil, fmt.Errorf("protocol: unknown sub-query kind %d at entry %d", byte(kind), i)
		}
		sq.Entry = be
		subs = append(subs, sq)
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	return subs, nil
}

// encodeUserProbs appends a length-prefixed (user id, probability) pair
// list — the shard-local count payload, shared by the MsgCountProbs
// response and the count arm of a sub-batch result.
func encodeUserProbs(e *Encoder, pairs []server.UserProb) {
	e.U32(uint32(len(pairs)))
	for _, up := range pairs {
		e.U64(up.ID).F64(up.P)
	}
}

// decodeUserProbs is the inverse of encodeUserProbs.
func decodeUserProbs(d *Decoder) []server.UserProb {
	n := int(d.U32())
	pairs := make([]server.UserProb, 0, capHint(n, 16, d))
	for i := 0; i < n && d.Err() == nil; i++ {
		pairs = append(pairs, server.UserProb{ID: d.U64(), P: d.F64()})
	}
	return pairs
}

// encodeSubResults serializes a shard's partial answers to a forwarded
// sub-batch: per entry a status byte, then either the failure cause or
// the kind-tagged partial payload (objects / NN parts / count probs).
func encodeSubResults(results []router.SubResult) []byte {
	var e Encoder
	e.U32(uint32(len(results)))
	for _, sr := range results {
		e.U32(uint32(sr.Index))
		if sr.Err != "" {
			e.U8(1)
			e.Str(sr.Err)
			continue
		}
		e.U8(0)
		e.U8(byte(sr.Kind))
		switch sr.Kind {
		case server.BatchPrivateRange:
			e.buf = append(e.buf, encodeObjects(sr.Range)...)
		case server.BatchPrivateNN:
			e.F64(sr.NN.Bound)
			e.buf = append(e.buf, encodeObjects(sr.NN.Candidates)...)
		case server.BatchPublicCount:
			encodeUserProbs(&e, sr.Count)
		}
	}
	return e.Bytes()
}

// decodeSubResults is the inverse of encodeSubResults.
func decodeSubResults(d *Decoder) ([]router.SubResult, error) {
	n := int(d.U32())
	if n > maxBatchEntries {
		return nil, fmt.Errorf("protocol: sub-batch result of %d entries exceeds the %d-entry cap", n, maxBatchEntries)
	}
	results := make([]router.SubResult, 0, capHint(n, 6, d))
	for i := 0; i < n && d.Err() == nil; i++ {
		sr := router.SubResult{Index: int(d.U32())}
		if d.U8() != 0 {
			sr.Err = d.Str()
			if d.Err() == nil && sr.Err == "" {
				return nil, fmt.Errorf("protocol: sub-result %d failed with empty cause", i)
			}
			results = append(results, sr)
			continue
		}
		sr.Kind = server.BatchKind(d.U8())
		switch sr.Kind {
		case server.BatchPrivateRange:
			sr.Range = decodeObjects(d)
		case server.BatchPrivateNN:
			sr.NN.Bound = d.F64()
			sr.NN.Candidates = decodeObjects(d)
		case server.BatchPublicCount:
			sr.Count = decodeUserProbs(d)
		default:
			if d.Err() == nil {
				return nil, fmt.Errorf("protocol: unknown sub-result kind %d at entry %d", byte(sr.Kind), i)
			}
		}
		results = append(results, sr)
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	return results, nil
}

// evalSubQueries answers a forwarded sub-batch against a local server:
// range entries run the full query (per-shard answers union exactly),
// NN and count entries run their partial halves for the router to
// combine. Failure causes travel as text and are re-wrapped by the router
// with the entry's original index, so errors print identically to the
// single-server batch path.
func evalSubQueries(ctx context.Context, srv *server.Server, subs []router.SubQuery) []router.SubResult {
	out := make([]router.SubResult, 0, len(subs))
	for _, sq := range subs {
		sr := router.SubResult{Index: sq.Index, Kind: sq.Entry.Kind}
		switch sq.Entry.Kind {
		case server.BatchPrivateRange:
			objs, err := srv.PrivateRangeCtx(ctx, sq.Entry.Range)
			if err != nil {
				sr.Err = err.Error()
			} else {
				sr.Range = objs
			}
		case server.BatchPrivateNN:
			parts, err := srv.PrivateNNPartsCtx(ctx, sq.Entry.NN)
			if err != nil {
				sr.Err = err.Error()
			} else {
				sr.NN = parts
			}
		case server.BatchPublicCount:
			pairs, err := srv.PublicCountProbsCtx(ctx, sq.Entry.Count)
			if err != nil {
				sr.Err = err.Error()
			} else {
				sr.Count = pairs
			}
		default:
			sr.Err = fmt.Sprintf("server: unknown batch query kind %d", byte(sq.Entry.Kind))
		}
		out = append(out, sr)
	}
	return out
}

// RemovePrivateCtx is RemovePrivate under a context (deadline, trace).
func (dc *DatabaseClient) RemovePrivateCtx(ctx context.Context, id uint64) error {
	var e Encoder
	e.U64(id)
	_, err := dc.c.CallCtx(ctx, MsgRemovePrivate, e.Bytes())
	return err
}

// UpdateMovingCtx is UpdateMoving under a context (deadline, trace).
func (dc *DatabaseClient) UpdateMovingCtx(ctx context.Context, id uint64, loc geo.Point) error {
	var e Encoder
	e.U64(id).Point(loc)
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
	var e Encoder
	e.U64(id)
	resp, err := dc.c.CallCtx(ctx, MsgRemoveMoving, e.Bytes())
	if err != nil {
		return false, err
	}
	d := NewDecoder(resp)
	existed := d.U8() != 0
	return existed, d.Err()
}

// LoadStationaryCtx is LoadStationary under a context (deadline, trace).
func (dc *DatabaseClient) LoadStationaryCtx(ctx context.Context, objs []server.PublicObject) error {
	_, err := dc.c.CallCtx(ctx, MsgLoadStationary, encodeObjects(objs))
	return err
}

// StatsCtx is Stats under a context (deadline, trace).
func (dc *DatabaseClient) StatsCtx(ctx context.Context) (stationary, private int, err error) {
	resp, err := dc.c.CallCtx(ctx, MsgStats, nil)
	if err != nil {
		return 0, 0, err
	}
	d := NewDecoder(resp)
	return int(d.U32()), int(d.U32()), d.Err()
}

// NNPartsCtx fetches the shard-local half of a private NN query.
func (dc *DatabaseClient) NNPartsCtx(ctx context.Context, q server.PrivateNNQuery) (server.NNParts, error) {
	var e Encoder
	e.Rect(q.Region).Str(q.Class)
	resp, err := dc.c.CallCtx(ctx, MsgNNParts, e.Bytes())
	if err != nil {
		return server.NNParts{}, err
	}
	d := NewDecoder(resp)
	parts := server.NNParts{Bound: d.F64()}
	parts.Candidates = decodeObjects(d)
	return parts, d.Err()
}

// CountProbsCtx fetches the shard-local half of a public count.
func (dc *DatabaseClient) CountProbsCtx(ctx context.Context, q server.PublicRangeCountQuery) ([]server.UserProb, error) {
	var e Encoder
	e.Rect(q.Query)
	resp, err := dc.c.CallCtx(ctx, MsgCountProbs, e.Bytes())
	if err != nil {
		return nil, err
	}
	d := NewDecoder(resp)
	pairs := decodeUserProbs(d)
	return pairs, d.Err()
}

// ShardBatchCtx forwards a sub-batch to one shard and returns its partial
// results.
func (dc *DatabaseClient) ShardBatchCtx(ctx context.Context, subs []router.SubQuery) ([]router.SubResult, error) {
	var e Encoder
	encodeSubQueries(&e, subs)
	resp, err := dc.c.CallCtx(ctx, MsgShardBatch, e.Bytes())
	if err != nil {
		return nil, err
	}
	return decodeSubResults(NewDecoder(resp))
}

// ShardMap fetches a routing tier's topology.
func (dc *DatabaseClient) ShardMap() (router.Topology, error) {
	return dc.ShardMapCtx(context.Background())
}

// ShardMapCtx is ShardMap under a context (deadline, trace).
func (dc *DatabaseClient) ShardMapCtx(ctx context.Context) (router.Topology, error) {
	resp, err := dc.c.CallCtx(ctx, MsgShardMap, nil)
	if err != nil {
		return router.Topology{}, err
	}
	return decodeShardMap(NewDecoder(resp))
}
