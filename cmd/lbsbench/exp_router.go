package main

import (
	"fmt"
	"log"
	"runtime"
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/server"
)

// expRouterScale (E20) measures the spatially-partitioned routing tier
// against a single database over real loopback TCP: identical seeded
// data, identical mixed query workload, one lbsd dialed directly vs a
// router fanned out over 1, 2 and 4 shards, at the process's GOMAXPROCS.
// The 1-shard router isolates the tier's own overhead (one extra hop plus
// scatter/gather accounting); the multi-shard rows show what spreading
// tiles across servers costs or buys on those cores. Answers are
// bit-identical in every topology (the router differential suite), so
// this table is purely about cost.
func expRouterScale(cfg benchConfig) {
	const queries = 2000
	workers := runtime.GOMAXPROCS(0)
	fmt.Printf("%d private users, %d public objects, %d mixed queries, %d workers, GOMAXPROCS=%d\n\n",
		cfg.n, cfg.objs, queries, workers, runtime.GOMAXPROCS(0))

	type topo struct {
		name   string
		shards int // 0 = dial the database directly, no router
	}
	grid := []topo{
		{"direct", 0},
		{"router", 1},
		{"router", 2},
		{"router", 4},
	}

	t := newTable("topology", "shards", "queries/sec", "vs direct")
	var base float64
	for _, tp := range grid {
		addr, cleanup := bootRouterTier(tp.shards)
		seedRouterTier(addr, cfg)
		qps := driveRouterTier(addr, cfg.seed, queries, workers)
		cleanup()
		rel := "1.00x"
		if base == 0 {
			base = qps
		} else {
			rel = fmt.Sprintf("%.2fx", qps/base)
		}
		t.row(tp.name, tp.shards, qps, rel)
	}
	t.flush()
	fmt.Println("\nreading: every row answers the same queries over the same data on")
	fmt.Println("the same cores. The 1-shard router pays the extra hop and the gather")
	fmt.Println("bookkeeping; each further shard adds scatter work and another server")
	fmt.Println("sharing those cores. No recorded run has the routed tier passing the")
	fmt.Println("direct baseline; whether it can is open (EXPERIMENTS.md E20).")
}

// bootRouterTier starts the database tier on loopback and returns the
// address clients dial: a single lbsd service (shards == 0) or a routing
// service over that many shard services.
func bootRouterTier(shards int) (addr string, cleanup func()) {
	quiet := func(string, ...interface{}) {}
	newSrv := func() *server.Server {
		s, err := server.New(server.Config{World: world})
		if err != nil {
			log.Fatalf("lbsbench: %v", err)
		}
		return s
	}
	if shards == 0 {
		svc, err := protocol.ServeDatabase("127.0.0.1:0", newSrv(), quiet)
		if err != nil {
			log.Fatalf("lbsbench: %v", err)
		}
		return svc.Addr(), func() { svc.Close() }
	}
	var (
		svcs  []*protocol.Service
		links []router.Shard
		addrs []string
		conns []*protocol.DatabaseClient
	)
	for i := 0; i < shards; i++ {
		svc, err := protocol.ServeDatabase("127.0.0.1:0", newSrv(), quiet)
		if err != nil {
			log.Fatalf("lbsbench: %v", err)
		}
		svcs = append(svcs, svc)
		addrs = append(addrs, svc.Addr())
		link, err := protocol.DialDatabase(svc.Addr(), protocol.WithCallTimeout(10*time.Second))
		if err != nil {
			log.Fatalf("lbsbench: %v", err)
		}
		conns = append(conns, link)
		links = append(links, link)
	}
	rt, err := router.New(router.Config{World: world, Shards: links, Addrs: addrs})
	if err != nil {
		log.Fatalf("lbsbench: %v", err)
	}
	rtSvc, err := protocol.ServeRouter("127.0.0.1:0", rt, quiet)
	if err != nil {
		log.Fatalf("lbsbench: %v", err)
	}
	return rtSvc.Addr(), func() {
		rtSvc.Close()
		for _, c := range conns {
			c.Close()
		}
		for _, s := range svcs {
			s.Close()
		}
	}
}

// seedRouterTier loads the identical data set into whatever tier addr
// fronts: public objects in one frame, then every user's cloaked region.
func seedRouterTier(addr string, cfg benchConfig) {
	cli, err := protocol.DialDatabase(addr, protocol.WithCallTimeout(30*time.Second))
	if err != nil {
		log.Fatalf("lbsbench: %v", err)
	}
	defer cli.Close()
	objPts, err := mobility.GeneratePoints(mobility.PopulationSpec{
		N: cfg.objs, World: world, Dist: mobility.Uniform, Seed: cfg.seed + 1,
	})
	if err != nil {
		log.Fatalf("lbsbench: %v", err)
	}
	objs := make([]server.PublicObject, len(objPts))
	for i, p := range objPts {
		objs[i] = server.PublicObject{ID: uint64(i + 1), Class: "poi", Loc: p}
	}
	if err := cli.LoadStationary(objs); err != nil {
		log.Fatalf("lbsbench: %v", err)
	}
	userPts, err := mobility.GeneratePoints(mobility.PopulationSpec{
		N: cfg.n, World: world, Dist: mobility.Gaussian, Seed: cfg.seed,
	})
	if err != nil {
		log.Fatalf("lbsbench: %v", err)
	}
	src := rng.New(cfg.seed + 7)
	for i, p := range userPts {
		reg := geo.RectAround(p, 0.005+0.03*src.Float64()).Clip(world)
		if err := cli.UpdatePrivate(uint64(i+1), reg); err != nil {
			log.Fatalf("lbsbench: %v", err)
		}
	}
}

// driveRouterTier fans the mixed query workload over worker connections
// and reports aggregate queries/sec. The workload is seeded per worker,
// so every topology answers exactly the same queries.
func driveRouterTier(addr string, seed uint64, queries, workers int) float64 {
	per := queries / workers
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cli, err := protocol.DialDatabase(addr, protocol.WithCallTimeout(10*time.Second))
			if err != nil {
				log.Fatalf("lbsbench: %v", err)
			}
			defer cli.Close()
			src := rng.New(seed + 1000 + uint64(w)*7919)
			for i := 0; i < per; i++ {
				p := geo.Pt(src.Range(0.1, 0.9), src.Range(0.1, 0.9))
				r := geo.RectAround(p, 0.02+0.05*src.Float64()).Clip(world)
				switch src.Intn(5) {
				case 0, 1:
					_, err = cli.PrivateRange(server.PrivateRangeQuery{Region: r, Radius: 0.03 * src.Float64(), Class: "poi"})
				case 2, 3:
					_, err = cli.PublicCount(r)
				default:
					_, err = cli.PrivateNN(server.PrivateNNQuery{Region: r, Class: "poi"})
				}
				if err != nil {
					log.Fatalf("lbsbench: worker %d: %v", w, err)
				}
			}
		}(w)
	}
	wg.Wait()
	return float64(per*workers) / time.Since(t0).Seconds()
}
