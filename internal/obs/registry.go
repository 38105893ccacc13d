package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Kind discriminates metric types.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Label is one name=value dimension of a metric series (the cloaking
// algorithm, the wire message type, the query class).
type Label struct {
	Key, Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metric is one registered series.
type metric struct {
	name   string
	help   string
	labels []Label
	kind   Kind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// seriesKey uniquely identifies a series: name plus sorted labels.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte('{')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte('}')
	}
	return b.String()
}

// Registry holds named metrics. Registration takes a short write lock;
// the returned Counter/Gauge/Histogram handles are lock-free, so hot paths
// register once and hold the handle. Registration is get-or-create: asking
// for an existing (name, labels) series returns the same handle, which is
// what lazily instrumented per-label call sites need. All methods are safe
// for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	series map[string]*metric

	hookMu sync.Mutex
	hooks  []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: make(map[string]*metric)}
}

// lookup returns an existing series, enforcing kind agreement.
func (r *Registry) lookup(key, name string, kind Kind) *metric {
	m, ok := r.series[key]
	if !ok {
		return nil
	}
	if m.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, kind, m.kind))
	}
	return m
}

// sortLabels returns labels in deterministic key order.
func sortLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Counter returns the counter registered under (name, labels), creating it
// on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	labels = sortLabels(labels)
	key := seriesKey(name, labels)
	r.mu.RLock()
	m := r.lookup(key, name, KindCounter)
	r.mu.RUnlock()
	if m != nil {
		return m.counter
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.lookup(key, name, KindCounter); m != nil {
		return m.counter
	}
	m = &metric{name: name, help: help, labels: labels, kind: KindCounter, counter: &Counter{}}
	r.series[key] = m
	return m.counter
}

// Gauge returns the gauge registered under (name, labels), creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	labels = sortLabels(labels)
	key := seriesKey(name, labels)
	r.mu.RLock()
	m := r.lookup(key, name, KindGauge)
	r.mu.RUnlock()
	if m != nil {
		return m.gauge
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.lookup(key, name, KindGauge); m != nil {
		return m.gauge
	}
	m = &metric{name: name, help: help, labels: labels, kind: KindGauge, gauge: &Gauge{}}
	r.series[key] = m
	return m.gauge
}

// Histogram returns the histogram registered under (name, labels), creating
// it with the given bucket bounds on first use (nil bounds =
// DefaultLatencyBuckets). Later calls may pass nil bounds to address the
// existing series.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	labels = sortLabels(labels)
	key := seriesKey(name, labels)
	r.mu.RLock()
	m := r.lookup(key, name, KindHistogram)
	r.mu.RUnlock()
	if m != nil {
		return m.hist
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.lookup(key, name, KindHistogram); m != nil {
		return m.hist
	}
	m = &metric{name: name, help: help, labels: labels, kind: KindHistogram, hist: newHistogram(bounds)}
	r.series[key] = m
	return m.hist
}

// MetricSnapshot is one frozen series — the unit the wire protocol carries
// and the exposition format prints.
type MetricSnapshot struct {
	Name   string
	Help   string
	Labels []Label
	Kind   Kind
	// Value holds the counter count (as a float) or the gauge value.
	Value float64
	// Hist is set for KindHistogram.
	Hist HistogramSnapshot
}

// AddExportHook registers fn to run at the start of every Export — the
// seam pull-model collectors (the runtime-metrics bridge) use to refresh
// their gauges only when someone is actually looking. Hooks run outside
// the registry lock and may register or update series.
func (r *Registry) AddExportHook(fn func()) {
	r.hookMu.Lock()
	r.hooks = append(r.hooks, fn)
	r.hookMu.Unlock()
}

// Export returns a snapshot of every registered series, sorted by name then
// label signature so output and wire encodings are deterministic.
func (r *Registry) Export() []MetricSnapshot {
	r.hookMu.Lock()
	hooks := r.hooks
	r.hookMu.Unlock()
	for _, fn := range hooks {
		fn()
	}
	r.mu.RLock()
	out := make([]MetricSnapshot, 0, len(r.series))
	for key, m := range r.series {
		s := MetricSnapshot{Name: m.name, Help: m.help, Labels: m.labels, Kind: m.kind}
		switch m.kind {
		case KindCounter:
			s.Value = float64(m.counter.Value())
		case KindGauge:
			s.Value = m.gauge.Value()
		case KindHistogram:
			s.Hist = m.hist.Snapshot()
		}
		_ = key
		out = append(out, s)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return seriesKey("", out[i].Labels) < seriesKey("", out[j].Labels)
	})
	return out
}

// Find returns the exported snapshot of one series, or false. It runs no
// export hooks, so a gauge set by one reads its value as of the last
// Export.
func (r *Registry) Find(name string, labels ...Label) (MetricSnapshot, bool) {
	labels = sortLabels(labels)
	key := seriesKey(name, labels)
	r.mu.RLock()
	m, ok := r.series[key]
	r.mu.RUnlock()
	if !ok {
		return MetricSnapshot{}, false
	}
	s := MetricSnapshot{Name: m.name, Help: m.help, Labels: m.labels, Kind: m.kind}
	switch m.kind {
	case KindCounter:
		s.Value = float64(m.counter.Value())
	case KindGauge:
		s.Value = m.gauge.Value()
	case KindHistogram:
		s.Hist = m.hist.Snapshot()
	}
	return s, true
}
