package protocol

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/anonymizer"
	"repro/internal/cloak"
	"repro/internal/codec"
	"repro/internal/geo"
	"repro/internal/privacy"
)

// ServeAnonymizer exposes an anonymizer.Anonymizer over TCP — the endpoint
// mobile users send their exact locations and privacy profiles to. Pass
// WithMetrics to instrument the wire layer and answer MsgMetrics.
func ServeAnonymizer(addr string, anon *anonymizer.Anonymizer, logf func(string, ...interface{}), opts ...Option) (*Service, error) {
	h := &anonHandler{anon: anon}
	return Serve(addr, h.handle, logf, opts...)
}

type anonHandler struct {
	anon *anonymizer.Anonymizer
}

func (h *anonHandler) handle(ctx context.Context, typ byte, payload []byte) ([]byte, error) {
	d := codec.NewDecoder(payload)
	var e codec.Encoder
	switch typ {
	case MsgRegister, MsgUpdateProfile:
		id, profile, err := decodeUserProfile(d)
		if err != nil {
			return nil, err
		}
		if typ == MsgRegister {
			return nil, h.anon.Register(id, profile)
		}
		return nil, h.anon.UpdateProfile(id, profile)

	case MsgUpdate, MsgCloakQuery:
		req := decodeLocRequest(d)
		if d.Err() != nil {
			return nil, d.Err()
		}
		var res cloak.Result
		var err error
		if typ == MsgUpdate {
			res, err = h.anon.UpdateCtx(ctx, req.ID, req.Loc)
		} else {
			res, err = h.anon.CloakQueryCtx(ctx, req.ID, req.Loc)
		}
		if err != nil {
			return nil, mapOverload(err)
		}
		encodeResult(&e, res)

	case MsgBatchUpdate:
		// Coarse whole-batch backpressure gate: when the forward queue is
		// saturated there is no point decoding and cloaking a batch whose
		// forwards would all be refused — the client gets one typed
		// MsgOverloaded instead.
		if h.anon.Saturated() {
			return nil, fmt.Errorf("%w: anonymizer forward queue full", ErrOverloaded)
		}
		reqs := decodeBatchRequests(d)
		if d.Err() != nil {
			return nil, d.Err()
		}
		encodeBatchResults(&e, h.anon.BatchUpdateCtx(ctx, reqs))

	case MsgDeregister:
		id := d.U64()
		if d.Err() != nil {
			return nil, d.Err()
		}
		h.anon.Deregister(id)

	case MsgAnonStats:
		encodeAnonStats(&e, h.anon.Stats())

	case MsgSetMode:
		id, mode := decodeSetMode(d)
		if d.Err() != nil {
			return nil, d.Err()
		}
		return nil, h.anon.SetMode(id, mode)

	default:
		return nil, fmt.Errorf("protocol: anonymizer service: unknown message type %d", typ)
	}
	return e.Bytes(), nil
}

// mapOverload translates the anonymizer engine's backpressure rejection
// into the protocol-level sentinel so it leaves the service as a
// MsgOverloaded frame rather than a generic error.
func mapOverload(err error) error {
	if errors.Is(err, anonymizer.ErrOverloaded) {
		return fmt.Errorf("%w: %v", ErrOverloaded, err)
	}
	return err
}

// exactPoint decodes a user's exact location off the wire. It is the one
// ingress where raw locations enter the trusted tier; everything derived
// from its result is tainted until a declared cloaking boundary
// (//lint:sanitized) severs the flow, and the privleak pass proves that
// no such value reaches a server-bound encode, a log line, or a metric.
//
//lint:source wire ingress of a user's exact location into the trusted tier
func exactPoint(d *codec.Decoder) geo.Point { return d.Point() }

// encodeLocRequest appends the body of MsgUpdate and MsgCloakQuery, and
// one entry of MsgBatchUpdate: a user's id and own exact location, on the
// one wire hop exact locations are allowed on. It carries no
// trusted-ingress directive: no exact location from the trusted tier
// reaches it, and privleak reports one that ever does.
func encodeLocRequest(e *codec.Encoder, r cloak.Request) { e.U64(r.ID).Point(r.Loc) }

// decodeLocRequest is the inverse of encodeLocRequest. Trusted-tier only:
// the point passes through the exactPoint taint source.
func decodeLocRequest(d *codec.Decoder) cloak.Request {
	return cloak.Request{ID: d.U64(), Loc: exactPoint(d)}
}

// encodeUserProfile appends the body of MsgRegister and MsgUpdateProfile:
// the user's id, then the profile flattened into entries.
func encodeUserProfile(e *codec.Encoder, id uint64, p *privacy.Profile) {
	e.U64(id)
	entries := p.Entries()
	e.U16(uint16(len(entries)))
	for _, en := range entries {
		e.U16(uint16(en.From)).U16(uint16(en.To))
		e.U32(uint32(en.Req.K))
		e.F64(en.Req.MinArea)
		// +Inf survives the float64 round trip, so "unconstrained" encodings
		// are preserved exactly.
		e.F64(en.Req.MaxArea)
	}
}

// decodeUserProfile is the inverse of encodeUserProfile.
func decodeUserProfile(d *codec.Decoder) (uint64, *privacy.Profile, error) {
	id := d.U64()
	n := d.Count(int(d.U16()), 24)
	entries := make([]privacy.Entry, 0, n)
	for i := 0; i < n; i++ {
		entries = append(entries, privacy.Entry{
			From: int(d.U16()),
			To:   int(d.U16()),
			Req: privacy.Requirement{
				K:       int(d.U32()),
				MinArea: d.F64(),
				MaxArea: d.F64(),
			},
		})
	}
	if d.Err() != nil {
		return 0, nil, d.Err()
	}
	profile, err := privacy.NewProfile(entries...)
	return id, profile, err
}

// encodeSetMode appends the body of MsgSetMode.
func encodeSetMode(e *codec.Encoder, id uint64, m privacy.Mode) { e.U64(id).U8(byte(m)) }
func decodeSetMode(d *codec.Decoder) (uint64, privacy.Mode)     { return d.U64(), privacy.Mode(d.U8()) }

// Result flags on the wire.
const (
	flagK       = 1 << 0
	flagMinArea = 1 << 1
	flagMaxArea = 1 << 2
	flagReused  = 1 << 3
)

// encodeResult appends a cloak result: the MsgUpdate and MsgCloakQuery
// reply, and one accepted entry of the MsgBatchUpdate reply.
func encodeResult(e *codec.Encoder, res cloak.Result) {
	e.Rect(res.Region)
	e.U32(uint32(res.K))
	var flags byte
	if res.SatisfiedK {
		flags |= flagK
	}
	if res.SatisfiedMinArea {
		flags |= flagMinArea
	}
	if res.SatisfiedMaxArea {
		flags |= flagMaxArea
	}
	if res.Reused {
		flags |= flagReused
	}
	e.U8(flags)
}

// decodeResult is the inverse of encodeResult.
func decodeResult(d *codec.Decoder) cloak.Result {
	res := cloak.Result{
		Region: d.Rect(),
		K:      int(d.U32()),
	}
	flags := d.U8()
	res.SatisfiedK = flags&flagK != 0
	res.SatisfiedMinArea = flags&flagMinArea != 0
	res.SatisfiedMaxArea = flags&flagMaxArea != 0
	res.Reused = flags&flagReused != 0
	return res
}

// encodeBatchRequests appends a MsgBatchUpdate request body: a
// length-prefixed run of location requests.
func encodeBatchRequests(e *codec.Encoder, reqs []cloak.Request) {
	e.U32(uint32(len(reqs)))
	for _, r := range reqs {
		encodeLocRequest(e, r)
	}
}

// decodeBatchRequests is the inverse of encodeBatchRequests.
func decodeBatchRequests(d *codec.Decoder) []cloak.Request {
	n := d.Count(int(d.U32()), 24)
	reqs := make([]cloak.Request, 0, n)
	for i := 0; i < n; i++ {
		reqs = append(reqs, decodeLocRequest(d))
	}
	return reqs
}

// encodeBatchResults appends a MsgBatchUpdate OK response: per request a
// presence byte, then the cloak result for accepted updates. The nil
// entries keep the response parallel to the request slice.
func encodeBatchResults(e *codec.Encoder, results []*cloak.Result) {
	e.Grow(4 + 38*len(results))
	e.U32(uint32(len(results)))
	for _, res := range results {
		e.Bool(res != nil)
		if res != nil {
			encodeResult(e, *res)
		}
	}
}

// decodeBatchResults is the inverse of encodeBatchResults.
func decodeBatchResults(d *codec.Decoder) []*cloak.Result {
	n := d.Count(int(d.U32()), 1)
	out := make([]*cloak.Result, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		if !d.Bool() {
			out = append(out, nil)
			continue
		}
		res := decodeResult(d)
		out = append(out, &res)
	}
	return out
}

// encodeAnonStats appends the MsgAnonStats reply.
func encodeAnonStats(e *codec.Encoder, st anonymizer.Stats) {
	e.U32(uint32(st.Registered))
	e.U64(st.Updates).U64(st.Queries).U64(st.Reused)
	e.U64(st.BestEffort).U64(st.Forwarded).U64(st.ForwardErrs)
	e.U64(st.Spilled).U64(st.Replayed).U64(st.Dropped)
	e.U32(uint32(st.QueueDepth))
	e.U64(st.Batches).U64(st.SharedHits)
}

// decodeAnonStats is the inverse of encodeAnonStats.
func decodeAnonStats(d *codec.Decoder) anonymizer.Stats {
	return anonymizer.Stats{
		Registered:  int(d.U32()),
		Updates:     d.U64(),
		Queries:     d.U64(),
		Reused:      d.U64(),
		BestEffort:  d.U64(),
		Forwarded:   d.U64(),
		ForwardErrs: d.U64(),
		Spilled:     d.U64(),
		Replayed:    d.U64(),
		Dropped:     d.U64(),
		QueueDepth:  int(d.U32()),
		Batches:     d.U64(),
		SharedHits:  d.U64(),
	}
}

// AnonymizerClient is the mobile user's connection to the trusted third
// party.
type AnonymizerClient struct {
	c *Client
}

// DialAnonymizer connects to an anonymizer service. Options configure the
// client's fault tolerance (deadlines, retries, circuit breaker).
func DialAnonymizer(addr string, opts ...DialOption) (*AnonymizerClient, error) {
	c, err := Dial(addr, opts...)
	if err != nil {
		return nil, err
	}
	return &AnonymizerClient{c: c}, nil
}

// Close closes the connection.
func (ac *AnonymizerClient) Close() error { return ac.c.Close() }

// Register sends the privacy profile.
func (ac *AnonymizerClient) Register(id uint64, profile *privacy.Profile) error {
	var e codec.Encoder
	encodeUserProfile(&e, id, profile)
	_, err := ac.c.Call(MsgRegister, e.Bytes())
	return err
}

// Update reports an exact location and returns the cloaking result.
func (ac *AnonymizerClient) Update(id uint64, loc geo.Point) (cloak.Result, error) {
	return ac.locCall(context.Background(), MsgUpdate, id, loc)
}

// UpdateCtx is Update under a context (deadline, trace).
func (ac *AnonymizerClient) UpdateCtx(ctx context.Context, id uint64, loc geo.Point) (cloak.Result, error) {
	return ac.locCall(ctx, MsgUpdate, id, loc)
}

// CloakQuery cloaks a location for an upcoming query.
func (ac *AnonymizerClient) CloakQuery(id uint64, loc geo.Point) (cloak.Result, error) {
	return ac.locCall(context.Background(), MsgCloakQuery, id, loc)
}

// CloakQueryCtx is CloakQuery under a context (deadline, trace).
func (ac *AnonymizerClient) CloakQueryCtx(ctx context.Context, id uint64, loc geo.Point) (cloak.Result, error) {
	return ac.locCall(ctx, MsgCloakQuery, id, loc)
}

// locCall sends the user's own exact location toward the trusted
// anonymizer tier and reads back the cloak result.
func (ac *AnonymizerClient) locCall(ctx context.Context, typ byte, id uint64, loc geo.Point) (cloak.Result, error) {
	var e codec.Encoder
	encodeLocRequest(&e, cloak.Request{ID: id, Loc: loc})
	d := ac.c.exchange(ctx, typ, e.Bytes())
	res := decodeResult(&d)
	return res, d.Err()
}

// BatchUpdate reports many exact locations in one round trip. The returned
// slice parallels the input; nil entries mark updates the anonymizer
// rejected (unknown user, passive mode, out-of-world location).
func (ac *AnonymizerClient) BatchUpdate(reqs []cloak.Request) ([]*cloak.Result, error) {
	return ac.BatchUpdateCtx(context.Background(), reqs)
}

// BatchUpdateCtx is BatchUpdate under a context (deadline, trace).
func (ac *AnonymizerClient) BatchUpdateCtx(ctx context.Context, reqs []cloak.Request) ([]*cloak.Result, error) {
	var e codec.Encoder
	encodeBatchRequests(&e, reqs)
	d := ac.c.exchange(ctx, MsgBatchUpdate, e.Bytes())
	out := decodeBatchResults(&d)
	return out, d.Err()
}

// Deregister removes the user.
func (ac *AnonymizerClient) Deregister(id uint64) error {
	var e codec.Encoder
	e.U64(id)
	_, err := ac.c.Call(MsgDeregister, e.Bytes())
	return err
}

// Stats reads the anonymizer's activity counters.
func (ac *AnonymizerClient) Stats() (anonymizer.Stats, error) {
	d := ac.c.exchange(context.Background(), MsgAnonStats, nil)
	st := decodeAnonStats(&d)
	return st, d.Err()
}

// SetMode switches the user's participation mode.
func (ac *AnonymizerClient) SetMode(id uint64, m privacy.Mode) error {
	var e codec.Encoder
	encodeSetMode(&e, id, m)
	_, err := ac.c.Call(MsgSetMode, e.Bytes())
	return err
}

// UpdateProfile replaces the user's privacy profile in place — the "raise
// my k" flip — keeping the user in the anonymity population throughout.
func (ac *AnonymizerClient) UpdateProfile(id uint64, profile *privacy.Profile) error {
	var e codec.Encoder
	encodeUserProfile(&e, id, profile)
	_, err := ac.c.Call(MsgUpdateProfile, e.Bytes())
	return err
}
