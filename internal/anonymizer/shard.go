package anonymizer

import (
	"sync"

	"repro/internal/cloak"
	"repro/internal/privacy"
)

// MaxShards bounds Config.Shards; per-shard metric series and the
// goroutine-per-shard batch phase make absurd counts pointless long before
// this limit.
const MaxShards = 256

// shard is one lock stripe of the anonymizer's per-user state. A user id
// maps to exactly one shard for its whole lifetime, so everything keyed by
// user — profile, mode, accumulated charges, the incremental region cache —
// lives here and is guarded by the shard mutex alone. Users in different
// shards proceed concurrently; the only cross-shard rendezvous is the
// spatial-index reader/writer lock.
type shard struct {
	mu       sync.Mutex //lint:lock stripe@0
	profiles map[uint64]*privacy.Profile
	modes    map[uint64]privacy.Mode
	charges  map[uint64]float64
	inc      *cloak.Incremental // nil unless Config.Incremental
}

func newShard(inc *cloak.Incremental) *shard {
	return &shard{
		profiles: make(map[uint64]*privacy.Profile),
		modes:    make(map[uint64]privacy.Mode),
		charges:  make(map[uint64]float64),
		inc:      inc,
	}
}

// shardFor maps a user id to its shard. The multiplicative mix spreads
// sequential ids (the common workload) across stripes even when the shard
// count divides the id stride.
func (a *Anonymizer) shardFor(id uint64) (*shard, int) {
	h := id * 0x9E3779B97F4A7C15 // Fibonacci hashing
	i := int((h >> 32) % uint64(len(a.shards)))
	return a.shards[i], i
}
