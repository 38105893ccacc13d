package protocol

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/codec"
	"repro/internal/geo"
	"repro/internal/router"
	"repro/internal/server"
)

// DatabaseClient implements the router's shard surface, so a router can
// be wired straight onto dialed lbsd links, and carries raw frames, so
// the router relays through it.
var (
	_ router.Shard   = (*DatabaseClient)(nil)
	_ router.Relayer = (*DatabaseClient)(nil)
)

// ServeRouter exposes a router.Router over TCP speaking the database
// service's wire protocol: clients (the anonymizer's forwarder, admin
// tools, the load generators) dial a routed tier exactly as they dial a
// single lbsd. A private range, public count or private NN request that
// one shard owns is relayed to it whole (router.Relay); every other
// query, update and stats message scatters through the router behind the
// handler lbsd shares (dbService). Messages whose semantics are
// inherently single-node (public NN, continuous queries) answer with a
// typed unsupported error. MsgShardMap reports the tile→shard topology.
func ServeRouter(addr string, rt *router.Router, logf func(string, ...interface{}), opts ...Option) (*Service, error) {
	h := &routerHandler{dbService: dbService{name: "router", be: rt}, rt: rt}
	return Serve(addr, h.handle, logf, opts...)
}

type routerHandler struct {
	dbService
	rt *router.Router
}

func (h *routerHandler) handle(ctx context.Context, typ byte, payload []byte) ([]byte, error) {
	switch typ {
	case MsgShardMap:
		var e codec.Encoder
		encodeShardMap(&e, h.rt.Topology())
		return e.Bytes(), nil

	case MsgPublicNN, MsgRegContCount, MsgContCount, MsgUnregContCount,
		MsgNNParts, MsgCountProbs, MsgShardBatch:
		return nil, fmt.Errorf("protocol: router service: %s not supported by the router tier", MessageName(typ))
	}
	resp, relayed, err := h.relay(ctx, typ, payload)
	if !relayed {
		resp, err = h.dbService.handle(ctx, typ, payload)
	}
	if err != nil && errors.Is(err, ErrRemote) {
		// The failure came back over a shard link, already wrapped once as
		// "protocol: remote error: <message>". Re-raise just the message:
		// the router's own service wraps it again on the way out, so a
		// routed client reads exactly the text a single-server client would.
		err = errors.New(strings.TrimPrefix(err.Error(), ErrRemote.Error()+": "))
	}
	return resp, err
}

// relay hands a private range, public count or private NN request to
// router.Relay, decoding only the rectangle that routes it: region ⊕
// radius, the count query, or the NN region. relayed is false when the
// request must scatter instead.
func (h *routerHandler) relay(ctx context.Context, typ byte, payload []byte) (resp []byte, relayed bool, err error) {
	d := codec.MakeDecoder(payload, nil)
	rect := d.Rect()
	var nnBound func([]byte, geo.Rect) float64
	switch typ {
	case MsgPrivateRange:
		rect = rect.Expand(d.F64())
	case MsgPrivateNN:
		nnBound = nnReplyBound
	case MsgPublicCount:
	default:
		return nil, false, nil
	}
	if d.Err() != nil {
		return nil, false, nil
	}
	return h.rt.Relay(ctx, rect, typ, payload, nnBound)
}

// nnReplyBound reads a MsgPrivateNN reply only as far as its candidates'
// locations and returns min MaxDist²(candidate, region): +Inf for an
// empty or unreadable reply.
func nnReplyBound(reply []byte, region geo.Rect) float64 {
	d := codec.MakeDecoder(reply, nil)
	d.U32() // superset size
	bound := math.Inf(1)
	for n := d.Count(int(d.U32()), 26); n > 0; n-- {
		d.U64()
		d.Skip(int(d.U16())) // class
		bound = min(bound, geo.MaxDist2(d.Point(), region))
	}
	if d.Err() != nil {
		return math.Inf(1)
	}
	return bound
}

// RelayCtx forwards one request frame to the peer and returns its reply
// payload undecoded — the router's single-owner relay.
func (dc *DatabaseClient) RelayCtx(ctx context.Context, typ byte, payload []byte) ([]byte, error) {
	return dc.c.CallCtx(ctx, typ, payload)
}

// encodeShardMap appends the MsgShardMap reply: world, grid dimensions,
// shard addresses, then the tile→shard ownership table as uint16s.
func encodeShardMap(e *codec.Encoder, t router.Topology) {
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
}

// decodeShardMap is the inverse of encodeShardMap, rejecting inconsistent
// frames: the owner table must match the grid size and every owner must
// name one of the declared shards.
func decodeShardMap(d *codec.Decoder) (router.Topology, error) {
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
	n = d.Count(n, 2)
	t.Owners = make([]int, 0, n)
	for i := 0; i < n; i++ {
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

// encodeSubQueries appends the MsgShardBatch body: each entry keeps its
// index in the original batch, followed by the batch-entry encoding a
// direct MsgBatchQuery uses.
func encodeSubQueries(e *codec.Encoder, subs []router.SubQuery) {
	e.U32(uint32(len(subs)))
	for _, sq := range subs {
		e.U32(uint32(sq.Index))
		encodeBatchEntry(e, sq.Entry)
	}
}

// decodeSubQueries is the inverse of encodeSubQueries. Like the direct
// batch decoder, an unknown kind byte fails the whole frame.
func decodeSubQueries(d *codec.Decoder) ([]router.SubQuery, error) {
	n := int(d.U32())
	if n > maxBatchEntries {
		return nil, fmt.Errorf("protocol: sub-batch of %d entries exceeds the %d-entry cap", n, maxBatchEntries)
	}
	// Each sub-query needs ≥ 37 bytes (index + kind + rectangle).
	n = d.Count(n, 37)
	subs := make([]router.SubQuery, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		sq := router.SubQuery{Index: int(d.U32())}
		var ok bool
		if sq.Entry, ok = decodeBatchEntry(d); !ok {
			return nil, fmt.Errorf("protocol: unknown sub-query kind %d at entry %d", byte(sq.Entry.Kind), i)
		}
		subs = append(subs, sq)
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	return subs, nil
}

// encodeNNParts appends the shard-local half of a private NN answer: the
// MsgNNParts reply and the NN arm of a sub-batch result.
func encodeNNParts(e *codec.Encoder, parts server.NNParts) {
	e.F64(parts.Bound)
	encodeObjects(e, parts.Candidates)
}

// decodeNNParts is the inverse of encodeNNParts.
func decodeNNParts(d *codec.Decoder) server.NNParts {
	return server.NNParts{Bound: d.F64(), Candidates: decodeObjects(d)}
}

// encodeUserProbs appends a length-prefixed (user id, probability) pair
// list — the shard-local count payload: the MsgCountProbs reply and the
// count arm of a sub-batch result.
func encodeUserProbs(e *codec.Encoder, pairs []server.UserProb) {
	e.U32(uint32(len(pairs)))
	for _, up := range pairs {
		e.U64(up.ID).F64(up.P)
	}
}

// decodeUserProbs is the inverse of encodeUserProbs.
func decodeUserProbs(d *codec.Decoder) []server.UserProb {
	n := d.Count(int(d.U32()), 16)
	pairs := make([]server.UserProb, 0, n)
	for i := 0; i < n; i++ {
		pairs = append(pairs, server.UserProb{ID: d.U64(), P: d.F64()})
	}
	return pairs
}

// encodeSubResults appends the MsgShardBatch reply, a shard's partial
// answers to a forwarded sub-batch: per entry a status byte, then either
// the failure cause or the kind-tagged partial payload (objects / NN
// parts / count probs).
func encodeSubResults(e *codec.Encoder, results []router.SubResult) {
	e.U32(uint32(len(results)))
	for _, sr := range results {
		e.U32(uint32(sr.Index))
		e.Bool(sr.Err != "")
		if sr.Err != "" {
			e.Str(sr.Err)
			continue
		}
		e.U8(byte(sr.Kind))
		switch sr.Kind {
		case server.BatchPrivateRange:
			encodeObjects(e, sr.Range)
		case server.BatchPrivateNN:
			encodeNNParts(e, sr.NN)
		case server.BatchPublicCount:
			encodeUserProbs(e, sr.Count)
		}
	}
}

// decodeSubResults is the inverse of encodeSubResults.
func decodeSubResults(d *codec.Decoder) ([]router.SubResult, error) {
	n := int(d.U32())
	if n > maxBatchEntries {
		return nil, fmt.Errorf("protocol: sub-batch result of %d entries exceeds the %d-entry cap", n, maxBatchEntries)
	}
	n = d.Count(n, 6)
	results := make([]router.SubResult, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		sr := router.SubResult{Index: int(d.U32())}
		if d.Bool() {
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
			sr.NN = decodeNNParts(d)
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
		var err error
		switch sq.Entry.Kind {
		case server.BatchPrivateRange:
			sr.Range, err = srv.PrivateRangeCtx(ctx, sq.Entry.Range)
		case server.BatchPrivateNN:
			sr.NN, err = srv.PrivateNNPartsCtx(ctx, sq.Entry.NN)
		case server.BatchPublicCount:
			sr.Count, err = srv.PublicCountProbsCtx(ctx, sq.Entry.Count)
		default:
			err = fmt.Errorf("server: unknown batch query kind %d", byte(sq.Entry.Kind))
		}
		if err != nil {
			sr = router.SubResult{Index: sq.Index, Kind: sq.Entry.Kind, Err: err.Error()}
		}
		out = append(out, sr)
	}
	return out
}

// NNPartsCtx fetches the shard-local half of a private NN query.
func (dc *DatabaseClient) NNPartsCtx(ctx context.Context, q server.PrivateNNQuery) (server.NNParts, error) {
	var e codec.Encoder
	encodeNNQuery(&e, q)
	d := dc.c.exchange(ctx, MsgNNParts, e.Bytes())
	parts := decodeNNParts(&d)
	return parts, d.Err()
}

// CountProbsCtx fetches the shard-local half of a public count.
func (dc *DatabaseClient) CountProbsCtx(ctx context.Context, q server.PublicRangeCountQuery) ([]server.UserProb, error) {
	var e codec.Encoder
	e.Rect(q.Query)
	d := dc.c.exchange(ctx, MsgCountProbs, e.Bytes())
	pairs := decodeUserProbs(&d)
	return pairs, d.Err()
}

// ShardBatchCtx forwards a sub-batch to one shard and returns its partial
// results.
func (dc *DatabaseClient) ShardBatchCtx(ctx context.Context, subs []router.SubQuery) ([]router.SubResult, error) {
	var e codec.Encoder
	encodeSubQueries(&e, subs)
	d := dc.c.exchange(ctx, MsgShardBatch, e.Bytes())
	return decodeSubResults(&d)
}

// ShardMap fetches a routing tier's topology.
func (dc *DatabaseClient) ShardMap() (router.Topology, error) {
	return dc.ShardMapCtx(context.Background())
}

// ShardMapCtx is ShardMap under a context (deadline, trace).
func (dc *DatabaseClient) ShardMapCtx(ctx context.Context) (router.Topology, error) {
	d := dc.c.exchange(ctx, MsgShardMap, nil)
	return decodeShardMap(&d)
}
