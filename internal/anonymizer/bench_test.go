package anonymizer

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/cloak"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/privacy"
	"repro/internal/rng"
)

// benchAnon builds a warmed anonymizer with n users for a configuration
// (World and Clock default as in newAnon).
func benchAnon(b *testing.B, cfg Config, n int) (*Anonymizer, []geo.Point) {
	b.Helper()
	a := newAnon(b, cfg)
	pts, err := mobility.GeneratePoints(mobility.PopulationSpec{
		N: n, World: world, Dist: mobility.Gaussian, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	prof := privacy.Constant(privacy.Requirement{K: 25})
	for i, p := range pts {
		a.Register(uint64(i+1), prof)
		if _, err := a.Update(uint64(i+1), p); err != nil {
			b.Fatal(err)
		}
	}
	return a, pts
}

// BenchmarkAnonBatchUpdate drives the full three-phase batch pipeline at
// shard counts 1/4/8 — the same series lbsbench E16 prints as a table
// of updates/sec. The incremental variants forward to a counting
// forwarder and re-send the locations of a first, untimed batch, so the
// cache finds every region unchanged; forwards/op (per entry) shows how
// many regions still went downstream.
func BenchmarkAnonBatchUpdate(b *testing.B) {
	const n = 5000
	for _, inc := range []bool{false, true} {
		for _, shards := range []int{1, 4, 8} {
			name := fmt.Sprintf("shards=%d", shards)
			if inc {
				name = "incremental/" + name
			}
			b.Run(name, func(b *testing.B) {
				cfg := Config{Shards: shards, BatchWorkers: shards}
				var forwards atomic.Int64
				if inc {
					cfg.Incremental = true
					cfg.Forward = func(uint64, geo.Rect) error { forwards.Add(1); return nil }
				}
				a, pts := benchAnon(b, cfg, n)
				reqs := make([]cloak.Request, n)
				for i, p := range pts {
					reqs[i] = cloak.Request{ID: uint64(i + 1), Loc: p}
				}
				a.BatchUpdate(reqs)
				forwards.Store(0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a.BatchUpdate(reqs)
				}
				b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "updates/s")
				if inc {
					b.ReportMetric(float64(forwards.Load())/(float64(n)*float64(b.N)), "forwards/op")
				}
			})
		}
	}
}

// BenchmarkAnonSingleUpdate is the per-call path at the same shard counts
// (serial caller: measures per-op overhead, not contention). The
// incremental variants run the configuration the daemons ship: users
// re-send the location they were warmed at, so every update takes the
// reuse path — validation of the cached region, no cloak — and the
// reused/op metric shows it did.
func BenchmarkAnonSingleUpdate(b *testing.B) {
	const n = 5000
	for _, inc := range []bool{false, true} {
		for _, shards := range []int{1, 4, 8} {
			name := fmt.Sprintf("shards=%d", shards)
			if inc {
				name = "incremental/" + name
			}
			b.Run(name, func(b *testing.B) {
				a, pts := benchAnon(b, Config{Shards: shards, BatchWorkers: shards, Incremental: inc}, n)
				src := rng.New(2)
				reused := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					id := uint64(src.Intn(n)) + 1
					res, err := a.Update(id, pts[id-1])
					if err != nil {
						b.Fatal(err)
					}
					if res.Reused {
						reused++
					}
				}
				b.ReportMetric(float64(reused)/float64(b.N), "reused/op")
			})
		}
	}
}

// BenchmarkAnonSingleUpdateParallel measures shard-stripe contention:
// concurrent callers on GOMAXPROCS goroutines. With Shards=1 every caller
// serializes on one mutex; with more stripes they mostly don't.
func BenchmarkAnonSingleUpdateParallel(b *testing.B) {
	const n = 5000
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			a, pts := benchAnon(b, Config{Shards: shards, BatchWorkers: shards}, n)
			var seq atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				src := rng.New(seq.Add(1))
				for pb.Next() {
					id := uint64(src.Intn(n)) + 1
					if _, err := a.Update(id, pts[id-1]); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
