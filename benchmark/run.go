package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/geo"
	"repro/internal/trace"
)

// setUps is how many times an untraced run sets the deployment up; it
// reports the median and measures on the last.
const setUps = 3

// traceFileSpans caps the spans written to the Chrome trace file; the
// ledger is computed from every span recorded.
const traceFileSpans = 60000

// outcome is one run of one workload: the result line's content plus
// what a human reader wants next to it.
type outcome struct {
	Correct    bool             `json:"correct"`
	Attempted  int64            `json:"attempted"`
	Failed     int64            `json:"failed"`
	Metrics    map[string]value `json:"metrics"`
	streamHash string
	causes     []error // first causes of failed operations and oracle checks
}

func warmUp(seconds float64) time.Duration {
	return time.Duration(min(max(0.15*seconds, 0.2), 3) * float64(time.Second))
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// add counts a measured window's operations into the outcome.
func (o *outcome) add(w *window) {
	o.Attempted += w.attempted
	o.Failed += w.failed
	if w.firstErr != nil {
		o.causes = append(o.causes, w.firstErr)
	}
}

// oracle runs the brute-force oracle and counts its queries likewise.
func (o *outcome) oracle(d *deployment, seed uint64) {
	checked, failures := d.bruteForce(seed)
	o.Attempted += int64(checked)
	o.Failed += int64(len(failures))
	o.causes = append(o.causes, failures...)
}

// subWindows is how many consecutive windows an untraced run cuts its
// measured time into. Every end-to-end metric is the median over them, so a
// burst from outside the process — the box has noisy neighbours — moves a
// window or two and not the result.
const subWindows = 10

// runPlain is the untraced run: set-up (several times), warm-up, the
// measured windows, the oracle. It reports the end-to-end metrics.
func runPlain(sp spec, seed uint64, seconds float64) (*outcome, error) {
	c, err := newCity(sp, seed)
	if err != nil {
		return nil, err
	}
	var d *deployment
	var setups []float64
	for i := 0; i < setUps; i++ {
		if d != nil {
			d.Close()
		}
		if d, err = setUp(sp, c, seed, nil); err != nil {
			return nil, err
		}
		setups = append(setups, d.setupSeconds)
	}
	defer d.Close()
	d.drive(warmUp(seconds), false)
	o := &outcome{}
	ws := make([]window, subWindows)
	for i := range ws {
		ws[i] = d.drive(secs(seconds/subWindows), true)
		o.add(&ws[i])
	}
	o.oracle(d, seed)
	// over is the median over the windows that have a value to give.
	over := func(f func(w *window) float64) float64 {
		var vals []float64
		for i := range ws {
			if v := f(&ws[i]); v > 0 {
				vals = append(vals, v)
			}
		}
		return median(vals)
	}
	p50 := func(kind opKind) float64 {
		return over(func(w *window) float64 { return us(w.lat[kind].Percentile(50)) })
	}
	o.Metrics = report(endToEnd, map[string]float64{
		"setup_s":              median(setups),
		"heap_live_mb":         d.heapLiveMB,
		"ops_per_s":            over(func(w *window) float64 { return float64(w.ops()) / w.seconds }),
		"update_p50_us":        p50(opUpdate),
		"private_query_p50_us": p50(opPrivate),
		"public_count_p50_us":  p50(opCount),
		"cpu_us_per_op":        over(func(w *window) float64 { return us(w.cpu) / float64(max(w.ops(), 1)) }),
	})
	return o, nil
}

// runTraced is the traced run: one set-up, warm-up, an untraced window
// (process-wide and load-generator numbers, and the base for the tracing
// overhead), the interposed window with the tap on, and the isolation
// replay of what that window logged. It reports the per-layer metrics and
// writes the window's first spans to outDir/<workload>.trace.json.
func runTraced(sp spec, seed uint64, seconds float64, outDir string) (*outcome, error) {
	c, err := newCity(sp, seed)
	if err != nil {
		return nil, err
	}
	tp := newTap(sp, seconds)
	d, err := setUp(sp, c, seed, tp)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	o := &outcome{}
	d.drive(warmUp(seconds), false)
	plain := d.drive(secs(0.5*seconds), true)
	o.add(&plain)
	o.oracle(d, seed)

	in := replayInput{sp: sp, city: c, budget: secs(0.25 * seconds / 20),
		loc: append([]geo.Point(nil), d.acked...), region: append([]geo.Rect(nil), d.region...)}
	before := d.st.counts()
	tp.on.Store(true)
	traced := d.drive(secs(0.25*seconds), true)
	tp.on.Store(false)
	after := d.st.counts()
	o.add(&traced)
	o.oracle(d, seed+1)
	for i := 0; i < logCap; i++ {
		for _, cl := range d.clients {
			if i < len(cl.log) {
				in.log = append(in.log, cl.log[i])
			}
		}
	}
	d.Close()

	spans := tp.recorded()
	if err := writeTrace(filepath.Join(outDir, sp.name+".trace.json"), spans[:min(len(spans), traceFileSpans)]); err != nil {
		return nil, err
	}
	m, err := replay(in)
	if err != nil {
		return nil, fmt.Errorf("isolation replay: %w", err)
	}
	tot := summarizeSpans(spans)
	ops, updates := float64(traced.ops()), float64(max(traced.entries[opUpdate], 1))
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	var frames, writes, reads int64
	for i := range tp.links {
		frames += tp.links[i].frames.Load()
		writes += tp.links[i].writes.Load()
		reads += tp.links[i].reads.Load()
	}
	m["protocol.frames_per_op"] = ratio(float64(frames), ops)
	m["protocol.writes_per_op"] = ratio(float64(writes), ops)
	m["protocol.reads_per_op"] = ratio(float64(reads), ops)
	m["protocol.client_frames_per_op"] = ratio(float64(tp.links[linkClient].frames.Load()), ops)
	m["protocol.client_bytes_per_op"] = ratio(float64(tp.links[linkClient].bytes.Load()), ops)
	m["protocol.forward_bytes_per_op"] = ratio(float64(tp.links[linkForward].bytes.Load()), ops)

	m["anonymizer.forward_calls_per_update"] = float64(tot.forwardCalls) / updates
	m["anonymizer.forward_wait_us_per_update"] = us(tot.forwardWait) / updates
	m["anonymizer.forward_wait_share"] = ratio(tot.forwardWait.Seconds(), tot.updateCall.Seconds())
	m["anonymizer.forward_calls_per_cloak_query"] = ratio(float64(tot.queryForwards), float64(traced.lat[opPrivate].N()))
	m["router.shard_calls_per_op"] = ratio(float64(tot.shardCalls), ops)
	m["router.shards_per_op"] = ratio(float64(tot.shardsTouched), ops)
	m["router.shard_wait_us_per_op"] = ratio(us(tot.shardWait), ops)
	m["router.self_us_per_op"] = ratio(us(tot.routedCall-tot.shardWait), ops)

	as0, as1 := before.anon, after.anon
	cloaks := float64(as1.Updates + as1.Queries - as0.Updates - as0.Queries)
	m["anonymizer.reused_share"] = ratio(float64(as1.Reused-as0.Reused), cloaks)
	m["anonymizer.best_effort_share"] = ratio(float64(as1.BestEffort-as0.BestEffort), cloaks)
	m["anonymizer.batch_shared_hit_share"] = ratio(float64(as1.SharedHits-as0.SharedHits),
		float64(as1.Batches-as0.Batches)*float64(sp.frame))
	m["server.batch_shared_hit_share"] = ratio(float64(after.shared-before.shared), float64(after.entries-before.entries))
	m["server.nn_candidates_per_query"] = ratio(after.nnCandSum-before.nnCandSum, float64(after.nnCandCount-before.nnCandCount))
	m["rtree.node_visits_per_query"] = ratio(after.nodeVisitSum-before.nodeVisitSum, float64(after.nodeVisitCount-before.nodeVisitCount))

	pops := float64(plain.ops())
	m["runtime.allocs_per_op"] = float64(plain.mallocs) / pops
	m["runtime.alloc_bytes_per_op"] = float64(plain.allocBytes) / pops
	m["runtime.gc_cpu_share"] = plain.gcCPUShare
	m["runtime.gc_pause_ms"] = ratio(plain.gcPause.Seconds()*1e3, float64(plain.gcCycles))
	for k, name := range kindNames {
		m["loadgen."+name+"_p99_us"] = us(plain.lat[k].Percentile(99))
		m["loadgen.samples_"+name] = float64(plain.lat[k].N())
	}
	m["loadgen.busy_share"] = plain.busyShare
	m["loadgen.trace_overhead_share"] = 1 - (ops/traced.seconds)/(pops/plain.seconds)

	// Reconciliation: what the isolated layers on an op's blocking path add
	// up to, against the traced end-to-end mean — the layer times are means,
	// and a heavy-tailed kind has a mean far from its median. README.md has
	// the formula per kind.
	f := float64(sp.frame)
	rtt := m["protocol.rtt_null_us"] * 1e3
	nnShare := sp.nnShare
	dbUpdate := m["server.update_private_ns"]
	dbPrivate := nnShare*m["server.private_nn_ns"] + (1-nnShare)*m["server.private_range_ns"]
	dbCount := m["server.public_count_ns"]
	if sp.shards > 0 {
		dbUpdate = rtt + m["router.update_ns"]
		dbPrivate = rtt + nnShare*m["router.private_nn_ns"] + (1-nnShare)*m["server.private_range_ns"]
		dbCount = rtt + m["router.public_count_ns"]
	}
	anonUpdate := m["anonymizer.update_ns"]
	privatePath := rtt + m["anonymizer.cloak_query_ns"] + m["anonymizer.forward_calls_per_cloak_query"]*(rtt+dbUpdate) + rtt + dbPrivate
	countPath := rtt + dbCount
	if sp.frame > 1 {
		anonUpdate = m["anonymizer.batch_update_ns_per_entry"]
		privatePath = rtt + f*m["server.batch_query_ns_per_entry"]
		countPath = privatePath
	}
	updatePath := rtt + f*(anonUpdate+m["anonymizer.forward_calls_per_update"]*(rtt+dbUpdate))
	for k, path := range [numKinds]float64{updatePath, privatePath, countPath} {
		mean := float64(traced.lat[k].Mean().Nanoseconds())
		m["loadgen.unattributed_share_"+kindNames[k]] = 1 - ratio(path, mean)
	}
	o.Metrics = report(perLayer, m)
	return o, nil
}

// writeTrace writes spans as Chrome trace-event JSON (Perfetto opens it)
// and prints where an op's time went: mean self time per stage, from
// trace.Summarize.
func writeTrace(path string, spans []trace.SpanRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	merged := trace.Merge(spans)
	if err := trace.WriteChromeJSON(f, merged); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	sums := trace.Summarize(merged)
	self := make(map[string]time.Duration)
	for _, s := range sums {
		for stage, d := range s.Self {
			self[stage] += d
		}
	}
	stages := make([]string, 0, len(self))
	for stage := range self {
		stages = append(stages, stage)
	}
	sort.Slice(stages, func(i, j int) bool { return self[stages[i]] > self[stages[j]] })
	fmt.Fprintf(os.Stderr, "  %d spans of %d ops in %s; mean self time per op:\n", len(merged), len(sums), path)
	for _, stage := range stages {
		fmt.Fprintf(os.Stderr, "    %-40s %9.2f us\n", stage, us(self[stage])/float64(max(len(sums), 1)))
	}
	return nil
}
