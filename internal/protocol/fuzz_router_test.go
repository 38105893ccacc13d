package protocol

import (
	"testing"

	"repro/internal/codec"
	"repro/internal/geo"
	"repro/internal/router"
	"repro/internal/server"
)

// Fuzz targets for the routing tier's decoders: the shard-map frame and
// the forwarded sub-batch frames (sub-queries shard-bound, sub-results
// router-bound). Same contract as the rest of the wire fuzzers —
// malformed input errors out, never panics or over-allocates, and
// well-formed input round-trips.

func shardMapSeed() router.Topology {
	return router.Topology{
		World:  geo.R(0, 0, 1, 1),
		Cols:   2,
		Rows:   2,
		Shards: 2,
		Addrs:  []string{"127.0.0.1:7101", "127.0.0.1:7102"},
		Owners: []int{0, 1, 1, 0},
	}
}

func FuzzDecodeShardMap(f *testing.F) {
	f.Add(body(func(e *codec.Encoder) { encodeShardMap(e, shardMapSeed()) }))
	f.Add([]byte{})
	f.Add(make([]byte, 44)) // zero grid
	f.Fuzz(func(t *testing.T, data []byte) {
		topo, err := decodeShardMap(codec.NewDecoder(data))
		if err != nil {
			return
		}
		// Accepted maps are internally consistent: the owner table covers
		// the grid and every owner names a declared shard.
		if len(topo.Owners) != topo.Cols*topo.Rows {
			t.Fatalf("%d owners for a %dx%d grid", len(topo.Owners), topo.Cols, topo.Rows)
		}
		if len(topo.Addrs) != topo.Shards {
			t.Fatalf("%d addrs for %d shards", len(topo.Addrs), topo.Shards)
		}
		for tile, o := range topo.Owners {
			if o < 0 || o >= topo.Shards {
				t.Fatalf("tile %d owned by out-of-range shard %d", tile, o)
			}
		}
		// Round trip.
		again, err := decodeShardMap(codec.NewDecoder(body(func(e *codec.Encoder) { encodeShardMap(e, topo) })))
		if err != nil {
			t.Fatalf("re-decode of re-encoded shard map failed: %v", err)
		}
		if len(again.Owners) != len(topo.Owners) {
			t.Fatalf("round trip changed owner count: %d vs %d", len(again.Owners), len(topo.Owners))
		}
	})
}

func subQuerySeed() []byte {
	var e codec.Encoder
	encodeSubQueries(&e, []router.SubQuery{
		{Index: 0, Entry: server.BatchEntry{Kind: server.BatchPrivateRange, Range: server.PrivateRangeQuery{
			Region: geo.R(0.1, 0.1, 0.3, 0.3), Radius: 0.05, Class: "gas",
		}}},
		{Index: 2, Entry: server.BatchEntry{Kind: server.BatchPrivateNN, NN: server.PrivateNNQuery{
			Region: geo.R(0.4, 0.4, 0.5, 0.5),
		}}},
		{Index: 3, Entry: server.BatchEntry{Kind: server.BatchPublicCount, Count: server.PublicRangeCountQuery{
			Query: geo.R(0, 0, 1, 1),
		}}},
	})
	return e.Bytes()
}

func FuzzDecodeSubQueries(f *testing.F) {
	f.Add(subQuerySeed())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // forged count, no entries
	f.Fuzz(func(t *testing.T, data []byte) {
		subs, err := decodeSubQueries(codec.NewDecoder(data))
		if err != nil {
			return
		}
		// No over-allocation: each sub-query consumed at least its minimum
		// wire size.
		if len(subs)*37 > len(data) {
			t.Fatalf("%d sub-queries from %d input bytes", len(subs), len(data))
		}
		// Round trip: decoded sub-queries re-encode to the consumed prefix.
		var e codec.Encoder
		encodeSubQueries(&e, subs)
		if _, err := decodeSubQueries(codec.NewDecoder(e.Bytes())); err != nil {
			t.Fatalf("re-decode of re-encoded sub-queries failed: %v", err)
		}
	})
}

func subResultSeed() []byte {
	return body(func(e *codec.Encoder) {
		encodeSubResults(e, []router.SubResult{
			{Index: 0, Kind: server.BatchPrivateRange, Range: []server.PublicObject{
				{ID: 9, Class: "gas", Loc: geo.Pt(0.2, 0.2)},
			}},
			{Index: 1, Err: "server: invalid radius -1"},
			{Index: 2, Kind: server.BatchPrivateNN, NN: server.NNParts{Bound: 0.25, Candidates: []server.PublicObject{
				{ID: 4, Class: "bank", Loc: geo.Pt(0.41, 0.44)},
			}}},
			{Index: 3, Kind: server.BatchPublicCount, Count: []server.UserProb{{ID: 7, P: 0.5}}},
		})
	})
}

func FuzzDecodeSubResults(f *testing.F) {
	f.Add(subResultSeed())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // forged count, no entries
	f.Fuzz(func(t *testing.T, data []byte) {
		results, err := decodeSubResults(codec.NewDecoder(data))
		if err != nil {
			return
		}
		// No over-allocation: each sub-result consumed at least its status
		// prefix.
		if len(results)*6 > len(data) {
			t.Fatalf("%d sub-results from %d input bytes", len(results), len(data))
		}
		for i, sr := range results {
			if sr.Err == "" {
				switch sr.Kind {
				case server.BatchPrivateRange, server.BatchPrivateNN, server.BatchPublicCount:
				default:
					t.Fatalf("sub-result %d accepted with unknown kind %d", i, byte(sr.Kind))
				}
			}
		}
		// Round trip.
		if _, err := decodeSubResults(codec.NewDecoder(body(func(e *codec.Encoder) { encodeSubResults(e, results) }))); err != nil {
			t.Fatalf("re-decode of re-encoded sub-results failed: %v", err)
		}
	})
}
