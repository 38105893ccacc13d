package protocol

import (
	"testing"

	"repro/internal/cloak"
	"repro/internal/codec"
	"repro/internal/geo"
	"repro/internal/prob"
	"repro/internal/server"
)

// Fuzz targets for the shared list codecs — object lists, count PDFs,
// (id, probability) pairs, public-NN candidates, batch frames — which
// every variable-length message body is built from.
// Contract as elsewhere: malformed input errors out via codec.Decoder.Err,
// never panics or over-allocates, and well-formed input round-trips.

func objectsSeed() []server.PublicObject {
	return []server.PublicObject{
		{ID: 1, Class: "gas", Loc: geo.Pt(0.1, 0.2)},
		{ID: 2, Class: "bank", Loc: geo.Pt(0.7, 0.4)},
	}
}

func FuzzDecodeObjects(f *testing.F) {
	f.Add(body(func(e *codec.Encoder) { encodeObjects(e, objectsSeed()) }))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // forged count, no objects
	f.Fuzz(func(t *testing.T, data []byte) {
		d := codec.NewDecoder(data)
		objs := decodeObjects(d)
		if d.Err() != nil {
			return
		}
		// No over-allocation: each object consumed at least its minimum
		// wire size (id + class length prefix + point).
		if len(objs)*26 > len(data) {
			t.Fatalf("%d objects from %d input bytes", len(objs), len(data))
		}
		// Round trip.
		d2 := codec.NewDecoder(body(func(e *codec.Encoder) { encodeObjects(e, objs) }))
		again := decodeObjects(d2)
		if d2.Err() != nil {
			t.Fatalf("re-decode of re-encoded objects failed: %v", d2.Err())
		}
		if len(again) != len(objs) {
			t.Fatalf("round trip changed object count: %d vs %d", len(again), len(objs))
		}
	})
}

func FuzzDecodeCountResult(f *testing.F) {
	var seed codec.Encoder
	encodeCountResult(&seed, server.PublicRangeCountResult{
		Answer:     prob.CountAnswer{Expected: 1.5, Lo: 1, Hi: 3, PDF: []float64{0.25, 0.5, 0.25}},
		NaiveCount: 3,
	})
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add(make([]byte, 24)) // header only, zero-length PDF
	f.Fuzz(func(t *testing.T, data []byte) {
		d := codec.NewDecoder(data)
		res := decodeCountResult(d)
		if d.Err() != nil {
			return
		}
		// No over-allocation from a forged PDF length.
		if len(res.Answer.PDF)*8 > len(data) {
			t.Fatalf("%d PDF entries from %d input bytes", len(res.Answer.PDF), len(data))
		}
		// Round trip.
		var e codec.Encoder
		encodeCountResult(&e, res)
		d2 := codec.NewDecoder(e.Bytes())
		if decodeCountResult(d2); d2.Err() != nil {
			t.Fatalf("re-decode of re-encoded count result failed: %v", d2.Err())
		}
	})
}

func FuzzDecodeUserProbs(f *testing.F) {
	var seed codec.Encoder
	encodeUserProbs(&seed, []server.UserProb{{ID: 7, P: 0.5}, {ID: 9, P: 0.125}})
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // forged count, no pairs
	f.Fuzz(func(t *testing.T, data []byte) {
		d := codec.NewDecoder(data)
		pairs := decodeUserProbs(d)
		if d.Err() != nil {
			return
		}
		// No over-allocation: 16 wire bytes per pair.
		if len(pairs)*16 > len(data) {
			t.Fatalf("%d pairs from %d input bytes", len(pairs), len(data))
		}
		// Round trip.
		var e codec.Encoder
		encodeUserProbs(&e, pairs)
		d2 := codec.NewDecoder(e.Bytes())
		again := decodeUserProbs(d2)
		if d2.Err() != nil {
			t.Fatalf("re-decode of re-encoded pairs failed: %v", d2.Err())
		}
		if len(again) != len(pairs) {
			t.Fatalf("round trip changed pair count: %d vs %d", len(again), len(pairs))
		}
	})
}

func batchEntriesSeed() []server.BatchEntry {
	return []server.BatchEntry{
		{Kind: server.BatchPrivateRange, Range: server.PrivateRangeQuery{
			Region: geo.R(0.1, 0.1, 0.3, 0.3), Radius: 0.05, Class: "gas",
		}},
		{Kind: server.BatchPrivateNN, NN: server.PrivateNNQuery{Region: geo.R(0.4, 0.4, 0.5, 0.5)}},
		{Kind: server.BatchPublicCount, Count: server.PublicRangeCountQuery{Query: geo.R(0, 0, 1, 1)}},
	}
}

func FuzzDecodeBatchQuery(f *testing.F) {
	var seed codec.Encoder
	encodeBatchEntries(&seed, batchEntriesSeed())
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // count over the batch cap
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := decodeBatchEntries(codec.NewDecoder(data))
		if err != nil {
			return
		}
		if len(entries) > maxBatchEntries {
			t.Fatalf("%d entries accepted past the %d-entry cap", len(entries), maxBatchEntries)
		}
		// No over-allocation: each entry consumed at least kind + rectangle.
		if len(entries)*33 > len(data) {
			t.Fatalf("%d entries from %d input bytes", len(entries), len(data))
		}
		// Round trip.
		var e codec.Encoder
		encodeBatchEntries(&e, entries)
		if _, err := decodeBatchEntries(codec.NewDecoder(e.Bytes())); err != nil {
			t.Fatalf("re-decode of re-encoded entries failed: %v", err)
		}
	})
}

func FuzzDecodeBatchResult(f *testing.F) {
	entries := batchEntriesSeed()
	f.Add(body(func(e *codec.Encoder) {
		encodeBatchResult(e, entries, server.BatchResult{
			SharedHits: 1,
			Items: []server.BatchItemResult{
				{Range: objectsSeed()},
				{NN: server.PrivateNNResult{SupersetSize: 2, Candidates: objectsSeed()[:1]}},
				{Count: server.PublicRangeCountResult{
					Answer: prob.CountAnswer{Expected: 1, Lo: 1, Hi: 1, PDF: []float64{0, 1}},
				}},
			},
		})
	}))
	f.Add([]byte{})
	f.Add([]byte{MsgBatchResult})
	f.Add([]byte{0x00}) // wrong sub-frame tag
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := decodeBatchResult(codec.NewDecoder(data))
		if err != nil {
			return
		}
		// No over-allocation: each item consumed at least its status bytes.
		if len(res.Items)*2 > len(data) {
			t.Fatalf("%d items from %d input bytes", len(res.Items), len(data))
		}
	})
}

func FuzzDecodeBatchUpdate(f *testing.F) {
	// Seeds cover both directions of the MsgBatchUpdate exchange: the
	// request's (id, point) run and the response's presence-tagged cloak
	// results.
	var req codec.Encoder
	req.U32(2)
	req.U64(1).Point(geo.Pt(0.2, 0.3))
	req.U64(2).Point(geo.Pt(0.4, 0.5))
	f.Add(req.Bytes())
	res := cloakResultSeed()
	f.Add(body(func(e *codec.Encoder) { encodeBatchResults(e, []*cloak.Result{nil, &res}) }))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // forged count, no entries
	f.Fuzz(func(t *testing.T, data []byte) {
		d := codec.NewDecoder(data)
		reqs := decodeBatchRequests(d)
		if d.Err() == nil && len(reqs)*24 > len(data) {
			t.Fatalf("%d requests from %d input bytes", len(reqs), len(data))
		}
		d = codec.NewDecoder(data)
		results := decodeBatchResults(d)
		if d.Err() != nil {
			return
		}
		// No over-allocation: each result consumed at least its presence
		// byte.
		if len(results) > 0 && len(results) > len(data) {
			t.Fatalf("%d results from %d input bytes", len(results), len(data))
		}
		// Round trip.
		d2 := codec.NewDecoder(body(func(e *codec.Encoder) { encodeBatchResults(e, results) }))
		again := decodeBatchResults(d2)
		if d2.Err() != nil {
			t.Fatalf("re-decode of re-encoded results failed: %v", d2.Err())
		}
		if len(again) != len(results) {
			t.Fatalf("round trip changed result count: %d vs %d", len(again), len(results))
		}
	})
}

func FuzzDecodePublicNN(f *testing.F) {
	f.Add(body(func(e *codec.Encoder) {
		encodePublicNNResult(e, server.PublicNNResult{
			PrunedCount:      3,
			Candidates:       []prob.NNProb{{ID: 7, Prob: 0.75}, {ID: 9, Prob: 0.25}},
			CandidateRegions: map[uint64]geo.Rect{7: geo.R(0.1, 0.1, 0.2, 0.2), 9: geo.R(0.4, 0.4, 0.5, 0.5)},
		})
	}))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0x40, 0}) // forged count (1<<22), no candidates
	f.Fuzz(func(t *testing.T, data []byte) {
		d := codec.NewDecoder(data)
		res := decodePublicNNResult(d)
		if d.Err() != nil {
			// A short payload yields no candidates, not a list of zero values.
			if len(res.Candidates) != 0 {
				t.Fatalf("%d candidates beside %v", len(res.Candidates), d.Err())
			}
			return
		}
		// No over-allocation: 48 wire bytes per candidate.
		if len(res.Candidates)*48 > len(data) {
			t.Fatalf("%d candidates from %d input bytes", len(res.Candidates), len(data))
		}
		// Round trip.
		d2 := codec.NewDecoder(body(func(e *codec.Encoder) { encodePublicNNResult(e, res) }))
		if again := decodePublicNNResult(d2); d2.Err() != nil || len(again.Candidates) != len(res.Candidates) {
			t.Fatalf("round trip: %d candidates vs %d, %v", len(again.Candidates), len(res.Candidates), d2.Err())
		}
	})
}
