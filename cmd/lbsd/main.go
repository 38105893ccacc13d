// Command lbsd runs the privacy-aware location-based database server as a
// TCP service (the right-hand tier of Figure 1). It receives cloaked
// regions from the anonymizer and serves private-over-public and
// public-over-private queries.
//
// With -metrics-addr set, an operational HTTP endpoint serves /metrics
// (Prometheus text format: the lbs_* server series and proto_* wire
// series), /healthz, and the net/http/pprof profiling endpoints under
// /debug/pprof/. The same series are answered over TCP to MsgMetrics
// requests, which is how lbssoak prints live percentile tables.
//
// Usage:
//
//	lbsd -addr :7070 -world 1.0 -metrics-addr :9090
package main

import (
	"flag"
	"log"
	"os"

	"repro/internal/geo"
	"repro/internal/server"
	"repro/internal/stack"
)

func main() {
	d := stack.NewDaemon("lbsd", "lbsd")
	addr := flag.String("addr", ":7070", "listen address")
	worldSize := flag.Float64("world", 1.0, "world is the square [0,size]²")
	snapshot := flag.String("snapshot", "", "snapshot file: restored at startup if present, written at shutdown")
	queryWorkers := flag.Int("query-workers", 0, "worker goroutines per batch query (0 = GOMAXPROCS, 1 = sequential)")
	flag.Parse()

	ops := d.Start()
	srv, err := server.New(server.Config{
		World:        geo.R(0, 0, *worldSize, *worldSize),
		Metrics:      ops.Metrics,
		QueryWorkers: *queryWorkers,
		Tracer:       ops.Tracer,
	})
	if err != nil {
		log.Fatalf("lbsd: %v", err)
	}
	if *snapshot != "" {
		if err := srv.LoadSnapshot(*snapshot); err == nil {
			log.Printf("lbsd: restored %d public objects, %d private users from %s",
				srv.StationaryCount(), srv.PrivateUserCount(), *snapshot)
		} else if !os.IsNotExist(err) {
			log.Fatalf("lbsd: restore %s: %v", *snapshot, err)
		}
	}
	svc, err := stack.ServeDatabase(*addr, srv, ops)
	if err != nil {
		log.Fatalf("lbsd: %v", err)
	}
	log.Printf("lbsd: privacy-aware database server listening on %s (world %.3g²)", svc.Addr(), *worldSize)

	d.Wait()
	if err := svc.Close(); err != nil {
		log.Printf("lbsd: close: %v", err)
	}
	if *snapshot != "" {
		if err := srv.SaveSnapshot(*snapshot); err != nil {
			log.Fatalf("lbsd: %v", err)
		}
		log.Printf("lbsd: state saved to %s", *snapshot)
	}
}
