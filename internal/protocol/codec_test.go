package protocol

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/anonymizer"
	"repro/internal/cloak"
	"repro/internal/codec"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/privacy"
	"repro/internal/prob"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/trace"
)

// Every message body has one encodeX/decodeX pair. With one encoder and
// one decoder per layout the two cannot drift apart silently: a field one
// side drops or reorders fails the round trip below. The cases cover the
// edges a layout can get wrong — empty lists, +Inf areas and bounds, and
// strings at the 64 KiB length-prefix limit.

// body runs an in-place body encoder on a fresh Encoder and returns the
// bytes: the test-side shorthand for what every stub and handler does.
func body(encode func(*codec.Encoder)) []byte {
	var e codec.Encoder
	encode(&e)
	return e.Bytes()
}

// rest reads what d has left, for the bodies whose decoders take the
// payload as a slice (metrics and spans).
func rest(d *codec.Decoder) []byte {
	b := make([]byte, d.Remaining())
	for i := range b {
		b[i] = d.U8()
	}
	return b
}

// show renders a value for comparison. %+v prints nil and empty lists
// alike (a decoder may return either for a zero count), floats at full
// round-trip precision, and errors by message.
func show(v interface{}) string { return fmt.Sprintf("%+v", v) }

// gen draws wire values from a seeded stream.
type gen struct{ r *rng.Source }

func (g gen) point() geo.Point { return geo.Pt(g.r.Float64(), g.r.Float64()) }

func (g gen) rect() geo.Rect {
	p := geo.Pt(g.r.Range(0, 0.8), g.r.Range(0, 0.8))
	return geo.R(p.X, p.Y, p.X+g.r.Range(0.01, 0.2), p.Y+g.r.Range(0.01, 0.2))
}

func (g gen) class() string { return []string{"", "gas", "bank"}[g.r.Intn(3)] }

func (g gen) objects(n int) []server.PublicObject {
	objs := make([]server.PublicObject, n)
	for i := range objs {
		objs[i] = server.PublicObject{ID: g.r.Uint64(), Class: g.class(), Loc: g.point()}
	}
	return objs
}

func (g gen) rangeQuery() server.PrivateRangeQuery {
	return server.PrivateRangeQuery{Region: g.rect(), Radius: g.r.Range(0, 0.2), Class: g.class(), Mode: server.RangeMode(g.r.Intn(2))}
}

func (g gen) nnQuery() server.PrivateNNQuery {
	return server.PrivateNNQuery{Region: g.rect(), Class: g.class()}
}

func (g gen) entries(n int) []server.BatchEntry {
	out := make([]server.BatchEntry, n)
	for i := range out {
		switch kind := server.BatchKind(1 + g.r.Intn(3)); kind {
		case server.BatchPrivateRange:
			out[i] = server.BatchEntry{Kind: kind, Range: g.rangeQuery()}
		case server.BatchPrivateNN:
			out[i] = server.BatchEntry{Kind: kind, NN: g.nnQuery()}
		default:
			out[i] = server.BatchEntry{Kind: kind, Count: server.PublicRangeCountQuery{Query: g.rect()}}
		}
	}
	return out
}

func (g gen) countResult(pdf int) server.PublicRangeCountResult {
	res := server.PublicRangeCountResult{NaiveCount: g.r.Intn(100)}
	res.Answer = prob.CountAnswer{Expected: g.r.Float64() * 10, Lo: g.r.Intn(5), Hi: 5 + g.r.Intn(5)}
	for i := 0; i < pdf; i++ {
		res.Answer.PDF = append(res.Answer.PDF, g.r.Float64())
	}
	return res
}

func (g gen) cloakResult() cloak.Result {
	return cloak.Result{Region: g.rect(), K: g.r.Intn(1000), SatisfiedK: g.r.Intn(2) == 0,
		SatisfiedMinArea: g.r.Intn(2) == 0, SatisfiedMaxArea: g.r.Intn(2) == 0, Reused: g.r.Intn(2) == 0}
}

func (g gen) userProbs(n int) []server.UserProb {
	out := make([]server.UserProb, n)
	for i := range out {
		out[i] = server.UserProb{ID: g.r.Uint64(), P: g.r.Float64()}
	}
	return out
}

// longClass is a class name at the Str length-prefix limit.
var longClass = strings.Repeat("k", 0xffff)

// codecCase is one generated value through one body codec.
type codecCase struct {
	name string
	want interface{}
	enc  func(e *codec.Encoder)
	dec  func(d *codec.Decoder) (interface{}, error)
}

// plain adapts a decoder that reports failure only through the sticky
// error.
func plain[T any](dec func(*codec.Decoder) T) func(*codec.Decoder) (interface{}, error) {
	return func(d *codec.Decoder) (interface{}, error) { return dec(d), nil }
}

func codecCases(g gen) []codecCase {
	var cases []codecCase
	add := func(name string, want interface{}, enc func(*codec.Encoder), dec func(*codec.Decoder) (interface{}, error)) {
		cases = append(cases, codecCase{name, want, enc, dec})
	}

	// Anonymizer bodies.
	type userProfile struct {
		ID      uint64
		Entries []privacy.Entry
	}
	for _, prof := range []*privacy.Profile{
		privacy.PaperExample(),
		privacy.Constant(privacy.Requirement{K: 7, MinArea: 0.5, MaxArea: math.Inf(1)}),
	} {
		prof, id := prof, g.r.Uint64()
		add("userProfile", userProfile{id, prof.Entries()},
			func(e *codec.Encoder) { encodeUserProfile(e, id, prof) },
			func(d *codec.Decoder) (interface{}, error) {
				id, p, err := decodeUserProfile(d)
				if err != nil {
					return nil, err
				}
				return userProfile{id, p.Entries()}, nil
			})
	}
	loc := cloak.Request{ID: g.r.Uint64(), Loc: g.point()}
	add("locRequest", loc, func(e *codec.Encoder) { encodeLocRequest(e, loc) }, plain(decodeLocRequest))
	type setMode struct {
		ID   uint64
		Mode privacy.Mode
	}
	sm := setMode{g.r.Uint64(), privacy.Mode(g.r.Intn(3))}
	add("setMode", sm, func(e *codec.Encoder) { encodeSetMode(e, sm.ID, sm.Mode) },
		func(d *codec.Decoder) (interface{}, error) { id, m := decodeSetMode(d); return setMode{id, m}, nil })
	cr := g.cloakResult()
	add("result", cr, func(e *codec.Encoder) { encodeResult(e, cr) }, plain(decodeResult))
	for _, n := range []int{0, 1, 64} {
		reqs := make([]cloak.Request, n)
		results := make([]cloak.Result, n) // by value: %+v of a pointer is its address
		ptrs := make([]*cloak.Result, n)
		for i := range reqs {
			reqs[i] = cloak.Request{ID: g.r.Uint64(), Loc: g.point()}
			if i%3 != 1 { // entry 1 of every three is a rejected update: a nil on the wire
				results[i] = g.cloakResult()
				ptrs[i] = &results[i]
			}
		}
		add("batchRequests", reqs, func(e *codec.Encoder) { encodeBatchRequests(e, reqs) }, plain(decodeBatchRequests))
		add("batchResults", fmt.Sprint(n, results), func(e *codec.Encoder) { encodeBatchResults(e, ptrs) },
			func(d *codec.Decoder) (interface{}, error) {
				got := decodeBatchResults(d)
				vals := make([]cloak.Result, len(got))
				for i, p := range got {
					if (p == nil) != (i < len(ptrs) && ptrs[i] == nil) {
						return nil, fmt.Errorf("entry %d: presence flipped", i)
					}
					if p != nil {
						vals[i] = *p
					}
				}
				return fmt.Sprint(len(got), vals), nil
			})
	}
	st := anonymizer.Stats{Registered: 1, Updates: 2, Queries: 3, Reused: 4, BestEffort: 5, Forwarded: 6,
		ForwardErrs: 7, Batches: 8, SharedHits: 9, Spilled: 10, Replayed: 11, Dropped: 12, QueueDepth: 13}
	add("anonStats", st, func(e *codec.Encoder) { encodeAnonStats(e, st) }, plain(decodeAnonStats))

	// Database bodies.
	type idRect struct {
		ID     uint64
		Region geo.Rect
	}
	up := idRect{g.r.Uint64(), g.rect()}
	add("updatePrivate", up, func(e *codec.Encoder) { encodeUpdatePrivate(e, up.ID, up.Region) },
		func(d *codec.Decoder) (interface{}, error) {
			id, r := decodeUpdatePrivate(d)
			return idRect{id, r}, nil
		})
	type idPoint struct {
		ID  uint64
		Loc geo.Point
	}
	um := idPoint{g.r.Uint64(), g.point()}
	add("updateMoving", um, func(e *codec.Encoder) { encodeUpdateMoving(e, um.ID, um.Loc) },
		func(d *codec.Decoder) (interface{}, error) {
			id, p := decodeUpdateMoving(d)
			return idPoint{id, p}, nil
		})
	add("stats", [2]int{12345, 678}, func(e *codec.Encoder) { encodeStats(e, 12345, 678) },
		func(d *codec.Decoder) (interface{}, error) { s, p := decodeStats(d); return [2]int{s, p}, nil })
	for _, objs := range [][]server.PublicObject{nil, g.objects(1), g.objects(300), {{ID: 1, Class: longClass, Loc: g.point()}}} {
		objs := objs
		add("objects", objs, func(e *codec.Encoder) { encodeObjects(e, objs) }, plain(decodeObjects))
		nn := server.PrivateNNResult{Candidates: objs, SupersetSize: len(objs) + 3}
		add("nnResult", nn, func(e *codec.Encoder) { encodeNNResult(e, nn) }, plain(decodeNNResult))
		parts := server.NNParts{Bound: math.Inf(1), Candidates: objs}
		add("nnParts", parts, func(e *codec.Encoder) { encodeNNParts(e, parts) }, plain(decodeNNParts))
	}
	for _, rq := range []server.PrivateRangeQuery{g.rangeQuery(), {Region: g.rect(), Class: longClass, Mode: 1}} {
		rq := rq
		add("rangeQuery", rq, func(e *codec.Encoder) { encodeRangeQuery(e, rq) }, plain(decodeRangeQuery))
	}
	nq := g.nnQuery()
	add("nnQuery", nq, func(e *codec.Encoder) { encodeNNQuery(e, nq) }, plain(decodeNNQuery))
	for _, n := range []int{0, 1, 50} {
		cnt := g.countResult(n)
		add("countResult", cnt, func(e *codec.Encoder) { encodeCountResult(e, cnt) }, plain(decodeCountResult))
		probs := g.userProbs(n)
		add("userProbs", probs, func(e *codec.Encoder) { encodeUserProbs(e, probs) }, plain(decodeUserProbs))

		pnn := server.PublicNNResult{PrunedCount: g.r.Intn(50), CandidateRegions: map[uint64]geo.Rect{}}
		for i := 0; i < n; i++ {
			c := prob.NNProb{ID: uint64(i + 1), Prob: g.r.Float64()}
			pnn.Candidates = append(pnn.Candidates, c)
			pnn.CandidateRegions[c.ID] = g.rect()
		}
		if n > 0 {
			pnn.Best = pnn.Candidates[0]
		}
		add("publicNNResult", pnn, func(e *codec.Encoder) { encodePublicNNResult(e, pnn) }, plain(decodePublicNNResult))

		entries := g.entries(n)
		add("batchEntries", entries, func(e *codec.Encoder) { encodeBatchEntries(e, entries) },
			func(d *codec.Decoder) (interface{}, error) { return decodeBatchEntries(d) })
		res := server.BatchResult{SharedHits: g.r.Intn(9), Items: make([]server.BatchItemResult, n)}
		subs := make([]router.SubQuery, n)
		subRes := make([]router.SubResult, n)
		for i, be := range entries {
			subs[i] = router.SubQuery{Index: g.r.Intn(4096), Entry: be}
			subRes[i] = router.SubResult{Index: subs[i].Index, Kind: be.Kind}
			switch {
			case i%4 == 3: // a failed entry: the wire carries its cause, the kind is restored by the stub
				res.Items[i].Err = &server.BatchEntryError{Index: i, Err: fmt.Errorf("server: invalid radius %d", -i)}
				subRes[i] = router.SubResult{Index: subs[i].Index, Err: "server: invalid radius"}
			case be.Kind == server.BatchPrivateRange:
				res.Items[i].Range = g.objects(g.r.Intn(4))
				subRes[i].Range = res.Items[i].Range
			case be.Kind == server.BatchPrivateNN:
				res.Items[i].NN = server.PrivateNNResult{Candidates: g.objects(g.r.Intn(4)), SupersetSize: 9}
				subRes[i].NN = server.NNParts{Bound: g.r.Float64(), Candidates: res.Items[i].NN.Candidates}
			default:
				res.Items[i].Count = g.countResult(g.r.Intn(4))
				subRes[i].Count = g.userProbs(g.r.Intn(4))
			}
		}
		add("batchResult", res, func(e *codec.Encoder) { encodeBatchResult(e, entries, res) },
			func(d *codec.Decoder) (interface{}, error) { return decodeBatchResult(d) })
		add("subQueries", subs, func(e *codec.Encoder) { encodeSubQueries(e, subs) },
			func(d *codec.Decoder) (interface{}, error) { return decodeSubQueries(d) })
		add("subResults", subRes, func(e *codec.Encoder) { encodeSubResults(e, subRes) },
			func(d *codec.Decoder) (interface{}, error) { return decodeSubResults(d) })
	}
	pq := server.PublicNNQuery{From: g.point(), Samples: g.r.Intn(5000), Seed: g.r.Uint64()}
	add("publicNNQuery", pq, func(e *codec.Encoder) { encodePublicNNQuery(e, pq) }, plain(decodePublicNNQuery))
	ca := server.ContinuousCountAnswer{Expected: g.r.Float64() * 9, Lo: 2, Hi: 11}
	add("contAnswer", ca, func(e *codec.Encoder) { encodeContAnswer(e, ca) }, plain(decodeContAnswer))
	topo := shardMapSeed()
	add("shardMap", topo, func(e *codec.Encoder) { encodeShardMap(e, topo) },
		func(d *codec.Decoder) (interface{}, error) { return decodeShardMap(d) })

	// Service-layer bodies.
	series := []obs.MetricSnapshot{
		{Name: "proto_overload_rejections_total", Help: "h", Kind: obs.KindCounter, Value: 7, Labels: []obs.Label{obs.L("type", "update")}},
		{Name: "proto_active_connections", Kind: obs.KindGauge, Value: -2},
		{Name: "proto_request_seconds", Kind: obs.KindHistogram, Hist: obs.HistogramSnapshot{
			Bounds: []float64{0.001, 0.01}, Counts: []uint64{1, 2, 3}, Sum: 0.5, Exemplars: []uint64{0, 9, 0}}},
		{Name: "proto_frame_bytes", Kind: obs.KindHistogram, Hist: obs.HistogramSnapshot{Counts: []uint64{0}}},
	}
	for _, ms := range [][]obs.MetricSnapshot{nil, series} {
		ms := ms
		add("metrics", ms, func(e *codec.Encoder) { e.Raw(encodeMetrics(ms)) },
			func(d *codec.Decoder) (interface{}, error) { return DecodeMetrics(rest(d)) })
	}
	spans := []trace.SpanRecord{
		{TraceID: 7, SpanID: 8, ParentID: 9, Name: "proto_serve", Proc: "lbsd", Start: 1e9, Dur: 5e6,
			Attrs: []trace.Attr{trace.Str("type", "update"), trace.Int("attempt", 2)}},
		{TraceID: 7, SpanID: 10, Name: "lbs_update_private"},
	}
	for _, sp := range [][]trace.SpanRecord{nil, spans} {
		sp := sp
		add("spans", sp, func(e *codec.Encoder) { e.Raw(encodeSpans(sp)) },
			func(d *codec.Decoder) (interface{}, error) { return DecodeSpans(rest(d)) })
	}
	return cases
}

func TestEveryBodyCodecRoundTrips(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		for _, c := range codecCases(gen{rng.New(seed)}) {
			wire := body(c.enc)
			d := codec.NewDecoder(wire)
			got, err := c.dec(d)
			if err == nil {
				err = d.Err()
			}
			if err != nil {
				t.Errorf("seed %d %s: decode: %v", seed, c.name, err)
				continue
			}
			if d.Remaining() != 0 {
				t.Errorf("seed %d %s: decoder left %d of %d bytes unread", seed, c.name, d.Remaining(), len(wire))
			}
			if show(got) != show(c.want) {
				t.Errorf("seed %d %s: round trip changed the value:\n got %.300s\nwant %.300s", seed, c.name, show(got), show(c.want))
			}
		}
	}
}

// A list codec must not size anything from a count its payload cannot
// hold: a forged prefix reads as the sticky error through codec.Decoder.Count
// before any loop or make runs. Every list codec is fed its own valid
// encoding cut off right after a count that was overwritten with the
// largest value the codec accepts, and must fail without allocating more
// than a small constant — measured in bytes, since one oversized make is
// a single allocation.
func TestForgedCountsNeverSizeAnAllocation(t *testing.T) {
	g := gen{rng.New(3)}
	forge32 := func(b []byte, at int, n uint32) []byte {
		out := append([]byte(nil), b[:at+4]...)
		out[at], out[at+1], out[at+2], out[at+3] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
		return out
	}
	objs := body(func(e *codec.Encoder) { encodeObjects(e, g.objects(2)) })
	res := server.BatchResult{Items: make([]server.BatchItemResult, 2)}
	entries := []server.BatchEntry{{Kind: server.BatchPublicCount}, {Kind: server.BatchPublicCount}}
	topo := shardMapSeed()
	topo.Cols, topo.Rows = 256, 256 // the largest owner table the decoder accepts
	fullMap := body(func(e *codec.Encoder) { encodeShardMap(e, topo) })
	hist := []obs.MetricSnapshot{{Name: "h", Kind: obs.KindHistogram, Hist: obs.HistogramSnapshot{Counts: []uint64{0}}}}
	cases := []struct {
		name    string
		payload []byte
		dec     func(d *codec.Decoder) error
	}{
		{"userProfile", append(make([]byte, 8), 0xff, 0xff), func(d *codec.Decoder) error { _, _, err := decodeUserProfile(d); return err }},
		{"batchRequests", forge32(make([]byte, 4), 0, 1<<22), func(d *codec.Decoder) error { decodeBatchRequests(d); return d.Err() }},
		{"batchResults", forge32(make([]byte, 4), 0, 1<<22), func(d *codec.Decoder) error { decodeBatchResults(d); return d.Err() }},
		{"objects", forge32(objs, 0, 1<<22), func(d *codec.Decoder) error { decodeObjects(d); return d.Err() }},
		{"nnResult", forge32(append(make([]byte, 4), objs...), 4, 1<<22), func(d *codec.Decoder) error { decodeNNResult(d); return d.Err() }},
		{"nnParts", forge32(append(make([]byte, 8), objs...), 8, 1<<22), func(d *codec.Decoder) error { decodeNNParts(d); return d.Err() }},
		{"countResult", forge32(make([]byte, 24), 20, 1<<22), func(d *codec.Decoder) error { decodeCountResult(d); return d.Err() }},
		{"publicNNResult", forge32(make([]byte, 8), 4, 1<<22), func(d *codec.Decoder) error { decodePublicNNResult(d); return d.Err() }},
		{"userProbs", forge32(make([]byte, 4), 0, 1<<22), func(d *codec.Decoder) error { decodeUserProbs(d); return d.Err() }},
		{"batchEntries", forge32(make([]byte, 4), 0, maxBatchEntries), func(d *codec.Decoder) error { _, err := decodeBatchEntries(d); return err }},
		{"batchResult", forge32(body(func(e *codec.Encoder) { encodeBatchResult(e, entries, res) }), 9, 1<<22),
			func(d *codec.Decoder) error { _, err := decodeBatchResult(d); return err }},
		{"subQueries", forge32(make([]byte, 4), 0, maxBatchEntries), func(d *codec.Decoder) error { _, err := decodeSubQueries(d); return err }},
		{"subResults", forge32(make([]byte, 4), 0, maxBatchEntries), func(d *codec.Decoder) error { _, err := decodeSubResults(d); return err }},
		{"shardMap", forge32(fullMap, len(fullMap)-12, 256*256), func(d *codec.Decoder) error { _, err := decodeShardMap(d); return err }},
		{"metrics series", forge32(make([]byte, 4), 0, 1<<22), func(d *codec.Decoder) error { _, err := DecodeMetrics(rest(d)); return err }},
		{"metrics bounds", forge32(encodeMetrics(hist), 4+3+2+1+2, 1<<22), func(d *codec.Decoder) error { _, err := DecodeMetrics(rest(d)); return err }},
		{"spans", forge32(make([]byte, 4), 0, 1<<22), func(d *codec.Decoder) error { _, err := DecodeSpans(rest(d)); return err }},
	}
	for _, c := range cases {
		if err := c.dec(codec.NewDecoder(c.payload)); err == nil {
			t.Errorf("%s: forged count accepted", c.name)
			continue
		}
		// 11 runs per measurement; the only allocations left are error
		// values and the decoders' fixed-size headers (a map, a topology's
		// address list). Both counters are process-wide, and background
		// goroutines can only add to them, so the least of five
		// measurements is the decoder's own cost.
		allocs, perRun := math.Inf(1), uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs = min(allocs, testing.AllocsPerRun(10, func() { c.dec(codec.NewDecoder(c.payload)) }))
			runtime.ReadMemStats(&after)
			perRun = min(perRun, (after.TotalAlloc-before.TotalAlloc)/11)
		}
		if allocs > 4 || perRun > 1024 {
			t.Errorf("%s: a forged count over a %d-byte payload cost %.0f allocations, %d bytes", c.name, len(c.payload), allocs, perRun)
		}
	}
}

// FuzzCodecCases fuzzes every body codec from the commit that adds its
// case: the seeds are the codecCases encodings, each tagged by its case
// index, and every input runs through that case's decoder, which must not
// panic or hang whatever the bytes.
func FuzzCodecCases(f *testing.F) {
	cases := codecCases(gen{rng.New(1)})
	for i, c := range cases {
		f.Add(uint16(i), body(c.enc))
	}
	f.Fuzz(func(t *testing.T, idx uint16, data []byte) {
		c := cases[int(idx)%len(cases)]
		c.dec(codec.NewDecoder(data))
	})
}
