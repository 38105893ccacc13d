package obs

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Histogram counts observations into fixed buckets with inclusive upper
// bounds (Prometheus "le" semantics: an observation v lands in the first
// bucket with v <= bound; anything above the last bound lands in the
// implicit +Inf overflow bucket). Buckets are fixed at construction, so
// Observe is a binary search plus two atomic adds — no locks, no
// allocation. All methods are safe for concurrent use.
type Histogram struct {
	bounds  []float64 // sorted upper bounds, immutable after construction
	counts  []atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	// exemplars holds one trace id per bucket (0 = none): the most recent
	// traced observation that landed there, linking a fat latency bucket
	// to a concrete captured trace.
	exemplars []atomic.Uint64
}

// newHistogram builds a histogram over the given bucket upper bounds. The
// bounds must be strictly increasing; DefaultLatencyBuckets is used when nil.
func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram bounds not strictly increasing at %d: %v", i, bounds))
		}
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{
		bounds:    b,
		counts:    make([]atomic.Uint64, len(b)+1),
		exemplars: make([]atomic.Uint64, len(b)+1),
	}
}

// bucketIndex returns the index of the first bound >= v (binary search),
// len(bounds) for the +Inf overflow bucket.
func (h *Histogram) bucketIndex(v float64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) { h.ObserveExemplar(v, 0) }

// ObserveExemplar records one sample and, when traceID is nonzero, makes
// it the exemplar of the bucket the sample fell into.
func (h *Histogram) ObserveExemplar(v float64, traceID uint64) {
	i := h.bucketIndex(v)
	h.counts[i].Add(1)
	if traceID != 0 {
		h.exemplars[i].Store(traceID)
	}
	h.addSum(v)
}

// ObserveN records n samples of the same value in one shot — the bulk
// path the runtime-metrics bridge uses to fold kernel histogram deltas in
// without n individual observations.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if n == 0 {
		return
	}
	h.counts[h.bucketIndex(v)].Add(n)
	h.addSum(v * float64(n))
}

func (h *Histogram) addSum(v float64) {
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds — the unit every *_seconds
// histogram uses, matching Prometheus convention.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Since records the time elapsed since t0 in seconds. The idiomatic call
// site is: defer h.Since(time.Now()).
func (h *Histogram) Since(t0 time.Time) { h.ObserveDuration(time.Since(t0)) }

// Snapshot returns a point-in-time copy. Concurrent observers may land
// between the bucket reads, so the snapshot is only approximately
// consistent — fine for monitoring, which is its job.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds, // immutable, shared
		Counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	for i := range h.exemplars {
		if t := h.exemplars[i].Load(); t != 0 {
			if s.Exemplars == nil {
				s.Exemplars = make([]uint64, len(h.exemplars))
			}
			s.Exemplars[i] = t
		}
	}
	s.Sum = math.Float64frombits(h.sumBits.Load())
	return s
}

// HistogramSnapshot is a frozen histogram: cumulative-free bucket counts
// (Counts[i] observations fell in bucket i; len(Counts) == len(Bounds)+1,
// the final entry being the +Inf overflow bucket) plus the sum of all
// observed values. Snapshots merge and travel over the wire protocol.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
	// Exemplars carries one trace id per bucket (0 = none); nil when the
	// histogram never saw a traced observation.
	Exemplars []uint64
}

// Count returns the total number of observations.
func (s HistogramSnapshot) Count() uint64 {
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Merge adds another snapshot into s. The bucket layouts must match.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) error {
	if len(s.Bounds) != len(o.Bounds) {
		return fmt.Errorf("obs: merge of mismatched histograms (%d vs %d buckets)", len(s.Bounds), len(o.Bounds))
	}
	for i := range s.Bounds {
		if s.Bounds[i] != o.Bounds[i] {
			return fmt.Errorf("obs: merge of mismatched histograms (bound %d: %g vs %g)", i, s.Bounds[i], o.Bounds[i])
		}
	}
	// Bounds may be shared with a live histogram; Counts are always owned.
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	if len(o.Exemplars) == len(s.Counts) {
		if s.Exemplars == nil {
			s.Exemplars = make([]uint64, len(s.Counts))
		}
		for i, t := range o.Exemplars {
			if s.Exemplars[i] == 0 {
				s.Exemplars[i] = t
			}
		}
	}
	s.Sum += o.Sum
	return nil
}

// ExemplarNear returns a trace id exemplifying the p-th percentile: the
// exemplar of the bucket that percentile falls into, or failing that the
// nearest slower, then nearest faster, bucket's. Returns 0 when the
// histogram holds no exemplars at all.
func (s HistogramSnapshot) ExemplarNear(p float64) uint64 {
	if len(s.Exemplars) != len(s.Counts) {
		return 0
	}
	total := s.Count()
	if total == 0 {
		return 0
	}
	rank := uint64(Rank(int(total), p))
	idx := len(s.Counts) - 1
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if rank < cum {
			idx = i
			break
		}
	}
	for i := idx; i < len(s.Exemplars); i++ {
		if s.Exemplars[i] != 0 {
			return s.Exemplars[i]
		}
	}
	for i := idx - 1; i >= 0; i-- {
		if s.Exemplars[i] != 0 {
			return s.Exemplars[i]
		}
	}
	return 0
}

// Mean returns the arithmetic mean, or 0 with no observations.
func (s HistogramSnapshot) Mean() float64 {
	n := s.Count()
	if n == 0 {
		return 0
	}
	return s.Sum / float64(n)
}

// Quantile returns the p-th percentile (p in [0,100]) under the same
// nearest-rank rule as Rank, resolved to bucket granularity: the rank's
// bucket is located on the cumulative counts and the value is interpolated
// linearly inside it. Observations in the overflow bucket report the last
// finite bound (the histogram cannot know more). Returns 0 with no
// observations.
func (s HistogramSnapshot) Quantile(p float64) float64 {
	total := s.Count()
	if total == 0 {
		return 0
	}
	rank := uint64(Rank(int(total), p))
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if rank < cum+c {
			if i == len(s.Bounds) {
				// Overflow bucket: clamp to the last finite bound.
				return s.Bounds[len(s.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			frac := (float64(rank-cum) + 1) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return s.Bounds[len(s.Bounds)-1]
}

// QuantileDuration is Quantile for *_seconds histograms.
func (s HistogramSnapshot) QuantileDuration(p float64) time.Duration {
	return time.Duration(s.Quantile(p) * float64(time.Second))
}

// Summary formats the standard one-line report, durations assumed.
func (s HistogramSnapshot) Summary() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v",
		s.Count(),
		time.Duration(s.Mean()*float64(time.Second)).Round(time.Microsecond),
		s.QuantileDuration(50).Round(time.Microsecond),
		s.QuantileDuration(95).Round(time.Microsecond),
		s.QuantileDuration(99).Round(time.Microsecond))
}

// ExpBuckets returns n strictly increasing upper bounds starting at start
// and multiplying by factor — the log-spaced layout every latency and size
// histogram here uses.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic(fmt.Sprintf("obs: invalid ExpBuckets(%g, %g, %d)", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Shared bucket layouts. Keeping these package-level means every tier's
// histograms of the same kind are mergeable.
var (
	// DefaultLatencyBuckets covers 1µs to ~8.6s in ×2 steps (seconds).
	DefaultLatencyBuckets = ExpBuckets(1e-6, 2, 24)
	// AreaBuckets covers cloaked-region areas from 1e-8 to ~0.67 of a unit
	// world in ×4 steps.
	AreaBuckets = ExpBuckets(1e-8, 4, 14)
	// CountBuckets covers integer set sizes (achieved k, candidate counts)
	// from 1 to 32768 in ×2 steps.
	CountBuckets = ExpBuckets(1, 2, 16)
	// RatioBuckets covers fractions in [0,1] in ten linear steps.
	RatioBuckets = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}
)
