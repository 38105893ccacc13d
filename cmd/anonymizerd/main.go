// Command anonymizerd runs the Location Anonymizer as a TCP service (the
// trusted middle tier of Figure 1). Mobile users register privacy profiles
// and send exact location updates here; only cloaked regions are forwarded
// to the database server.
//
// With -metrics-addr set, an operational HTTP endpoint serves /metrics
// (Prometheus text format: the anon_* cloaking series — per-algorithm
// latency, cloaked-area and achieved-k distributions, reuse rate — and the
// proto_* wire series), /healthz, and the net/http/pprof profiling
// endpoints under /debug/pprof/. The same series are answered over TCP to
// MsgMetrics requests, which is how lbssoak prints live percentile tables.
//
// Usage:
//
//	anonymizerd -addr :7071 -db localhost:7070 -alg quadtree -incremental -shards 8 -workers 8 -metrics-addr :9091
package main

import (
	"flag"
	"log"
	"runtime"

	"repro/internal/anonymizer"
	"repro/internal/geo"
	"repro/internal/stack"
)

func main() {
	d := stack.NewDaemon("anonymizerd", "anonymizer")
	addr := flag.String("addr", ":7071", "listen address")
	dbAddr := flag.String("db", "localhost:7070", "database server address (empty = do not forward)")
	worldSize := flag.Float64("world", 1.0, "world is the square [0,size]²")
	algName := flag.String("alg", "quadtree", "cloaking algorithm: quadtree|grid|grid-ml")
	gridLevel := flag.Int("grid-level", 6, "fixed level for grid cloaking")
	pyramidHeight := flag.Int("pyramid-height", 10, "space partition depth")
	incremental := flag.Bool("incremental", false, "enable incremental cloak maintenance")
	shards := flag.Int("shards", runtime.GOMAXPROCS(0), "per-user state lock stripes (1 = fully serialized)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker pool for the batch cloaking phase")
	callTimeout := flag.Duration("call-timeout", stack.ForwardCallTimeout, "deadline for each call to the database server (0 = protocol.DefaultCallTimeout)")
	forwardQueue := flag.Int("forward-queue", stack.ForwardQueue, "spill queue capacity for cloaked regions while the database is down (0 = fail updates instead)")
	backpressure := flag.Bool("backpressure", true, "reject updates typed when the spill queue is full instead of evicting older ones")
	flag.Parse()

	alg, err := anonymizer.ParseAlgorithm(*algName)
	if err != nil {
		log.Fatalf("anonymizerd: %v", err)
	}

	ops := d.Start()
	if *dbAddr != "" {
		log.Printf("anonymizerd: forwarding cloaked regions to %s (spill queue %d, backpressure %v)",
			*dbAddr, *forwardQueue, *backpressure)
	}
	anon, err := stack.ServeAnonymizer(*addr, anonymizer.Config{
		World:         geo.R(0, 0, *worldSize, *worldSize),
		Algorithm:     alg,
		GridLevel:     *gridLevel,
		PyramidHeight: *pyramidHeight,
		Incremental:   *incremental,
		Shards:        *shards,
		BatchWorkers:  *workers,
	}, stack.Forward{Addr: *dbAddr, CallTimeout: *callTimeout, Queue: *forwardQueue, Backpressure: *backpressure}, ops)
	if err != nil {
		log.Fatalf("anonymizerd: %v", err)
	}
	log.Printf("anonymizerd: location anonymizer (%v%s, %d shards, %d batch workers) listening on %s",
		alg, map[bool]string{true: "+incremental", false: ""}[*incremental],
		anon.Shards(), anon.BatchWorkers(), anon.Svc.Addr())

	d.Wait()
	log.Printf("anonymizerd: stats: %+v", anon.Stats())
	anon.Close()
}
