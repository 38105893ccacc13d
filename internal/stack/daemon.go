package stack

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Daemon is the operational tail the three daemons share: the flags every
// one of them takes, its registry and tracer, the service options built
// from those flags, the /metrics + /traces endpoint and the wait for a
// shutdown signal.
type Daemon struct {
	name, process string

	metricsAddr               *string
	maxConns, maxInflight     *int
	readTimeout, drainTimeout *time.Duration
	traceSample               *float64
	traceSlow                 *time.Duration

	metrics *obs.MetricsServer
}

// NewDaemon registers the shared flags on the command line; call it
// before flag.Parse. name prefixes the log lines, process names the
// daemon's spans.
func NewDaemon(name, process string) *Daemon {
	return &Daemon{
		name: name, process: process,
		metricsAddr:  flag.String("metrics-addr", "", "HTTP address for /metrics, /healthz and /debug/pprof (empty = disabled)"),
		maxConns:     flag.Int("max-conns", 0, "max concurrent client connections (0 = unlimited)"),
		maxInflight:  flag.Int("max-inflight", 0, "admission budget: max in-flight requests before typed overload rejection, queries capped at half (0 = unlimited)"),
		readTimeout:  flag.Duration("read-timeout", 0, "drop connections idle for this long (0 = never)"),
		drainTimeout: flag.Duration("drain-timeout", 2*time.Second, "grace for in-flight requests on shutdown"),
		traceSample:  flag.Float64("trace-sample", 0, "fraction of traced requests to record spans for (0 = tracing off, 1 = all)"),
		traceSlow:    flag.Duration("trace-slow", 0, "pin spans at least this slow in the slow-trace ring regardless of ring wraparound (0 = off)"),
	}
}

// Start, after flag.Parse, builds the daemon's registry (with the runtime
// series) and tracer, serves /metrics and /traces when -metrics-addr is
// set, and returns the service options for the daemon's tier.
func (d *Daemon) Start() Ops {
	o := Ops{
		Metrics:      obs.NewRegistry(),
		Logf:         log.Printf,
		MaxInflight:  *d.maxInflight,
		MaxConns:     *d.maxConns,
		ReadTimeout:  *d.readTimeout,
		DrainTimeout: *d.drainTimeout,
	}
	obs.EnableRuntimeMetrics(o.Metrics)
	if *d.traceSample > 0 {
		o.Tracer = trace.New(trace.Config{Process: d.process, Sample: *d.traceSample, SlowThreshold: *d.traceSlow})
		log.Printf("%s: tracing %.3g of traced requests (slow threshold %v)", d.name, *d.traceSample, *d.traceSlow)
	}
	if o.MaxInflight > 0 {
		log.Printf("%s: admission control on (budget %d in-flight, queries capped at %d)",
			d.name, o.MaxInflight, max(1, o.MaxInflight/2))
	}
	if *d.metricsAddr != "" {
		var err error
		d.metrics, err = obs.ServeMetrics(*d.metricsAddr, o.Metrics,
			obs.Route{Pattern: "/traces", Handler: o.Tracer.Handler()})
		if err != nil {
			log.Fatalf("%s: metrics endpoint: %v", d.name, err)
		}
		log.Printf("%s: metrics on http://%s/metrics (traces on /traces, pprof under /debug/pprof/)", d.name, d.metrics.Addr())
	}
	return o
}

// Wait blocks until SIGINT or SIGTERM, then stops the metrics endpoint;
// the caller closes its tier after.
func (d *Daemon) Wait() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("%s: shutting down", d.name)
	if d.metrics != nil {
		d.metrics.Close()
	}
}
