package obs

import (
	"fmt"
	"slices"
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
//
// A name is checked where it is made: registration panics on a name that
// is not snake_case, and on one that disagrees with the name's first
// series in kind, help text or bucket bounds (nil bounds agree with any),
// since the exposition prints one HELP and TYPE per name.
type Registry struct {
	mu     sync.RWMutex
	series map[string]*metric
	first  map[string]*metric // each name's first series

	hookMu sync.Mutex
	hooks  []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: make(map[string]*metric), first: make(map[string]*metric)}
}

// ValidName reports whether name is snake_case: a lowercase letter, then
// lowercase letters, digits and underscores. Metric and span names must be.
func ValidName(name string) bool {
	for i := 0; i < len(name); i++ {
		c := name[i]
		if !('a' <= c && c <= 'z' || i > 0 && (c == '_' || '0' <= c && c <= '9')) {
			return false
		}
	}
	return name != ""
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
	return r.register(name, help, KindCounter, nil, labels).counter
}

// Gauge returns the gauge registered under (name, labels), creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.register(name, help, KindGauge, nil, labels).gauge
}

// Histogram returns the histogram registered under (name, labels), creating
// it with the given bucket bounds on first use (nil bounds = the name's
// bounds, or DefaultLatencyBuckets for a new name). Later calls may pass
// nil bounds to address the existing series.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	return r.register(name, help, KindHistogram, bounds, labels).hist
}

// register is the one get-or-create path of Counter, Gauge and Histogram.
func (r *Registry) register(name, help string, kind Kind, bounds []float64, labels []Label) *metric {
	labels = sortLabels(labels)
	key := seriesKey(name, labels)
	r.mu.RLock()
	m := r.series[key]
	r.mu.RUnlock()
	if m == nil {
		r.mu.Lock()
		defer r.mu.Unlock()
		m = r.series[key]
	}
	if m != nil {
		m.agree(kind, help, bounds)
		return m
	}
	// A new series: a new name must be snake_case, and a new label set of
	// a known name must agree with the name's first series.
	first := r.first[name]
	if first == nil && !ValidName(name) {
		panic(fmt.Sprintf("obs: metric name %q is not snake_case", name))
	}
	if first != nil {
		first.agree(kind, help, bounds)
		if len(bounds) == 0 && first.hist != nil {
			bounds = first.hist.bounds
		}
	}
	m = &metric{name: name, help: help, labels: labels, kind: kind}
	switch kind {
	case KindCounter:
		m.counter = &Counter{}
	case KindGauge:
		m.gauge = &Gauge{}
	case KindHistogram:
		m.hist = newHistogram(bounds)
	}
	r.series[key] = m
	if first == nil {
		r.first[name] = m
	}
	return m
}

// agree panics unless a registration of m's name matches m in kind, help
// text and, when bounds are given, bucket bounds.
func (m *metric) agree(kind Kind, help string, bounds []float64) {
	switch {
	case m.kind != kind:
		panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", m.name, kind, m.kind))
	case m.help != help:
		panic(fmt.Sprintf("obs: metric %q re-registered with help %q (was %q)", m.name, help, m.help))
	case len(bounds) > 0 && !slices.Equal(bounds, m.hist.bounds):
		panic(fmt.Sprintf("obs: histogram %q re-registered with bounds %v (was %v)", m.name, bounds, m.hist.bounds))
	}
}

// snapshot freezes the series.
func (m *metric) snapshot() MetricSnapshot {
	s := MetricSnapshot{Name: m.name, Help: m.help, Labels: m.labels, Kind: m.kind}
	switch m.kind {
	case KindCounter:
		s.Value = float64(m.counter.Value())
	case KindGauge:
		s.Value = m.gauge.Value()
	case KindHistogram:
		s.Hist = m.hist.Snapshot()
	}
	return s
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
	for _, m := range r.series {
		out = append(out, m.snapshot())
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
	return m.snapshot(), true
}
