// Storefinder: the paper's motivating "find the nearest restaurant"
// scenario. A user walks through town asking for nearby restaurants and
// gas stations at increasing privacy levels, and the example prints how the
// answer quality (candidate counts, transfer bytes) degrades as k grows —
// the personal privacy/QoS trade-off of Section 1.
package main

import (
	"fmt"
	"log"

	"repro/internal/anonymizer"
	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/privacy"
	"repro/internal/server"
)

func main() {
	world := geo.R(0, 0, 1, 1)
	srv, err := server.New(server.Config{World: world})
	if err != nil {
		log.Fatal(err)
	}
	anon, err := anonymizer.New(anonymizer.Config{World: world, ForwardCtx: srv.UpdatePrivateCtx})
	if err != nil {
		log.Fatal(err)
	}

	// A realistic downtown: restaurants cluster, gas stations spread out.
	objs, err := mobility.GeneratePublicObjects(world, 42,
		mobility.ObjectClass{Name: "restaurant", N: 800, Dist: mobility.Gaussian},
		mobility.ObjectClass{Name: "gas", N: 200, Dist: mobility.Uniform},
	)
	if err != nil {
		log.Fatal(err)
	}
	pois := make([]server.PublicObject, len(objs))
	for i, o := range objs {
		pois[i] = server.PublicObject{ID: o.ID, Class: o.Class, Loc: o.Loc}
	}
	if err := srv.LoadStationary(pois); err != nil {
		log.Fatal(err)
	}

	// 5000 other subscribers form the anonymity sets.
	crowd, err := mobility.GeneratePoints(mobility.PopulationSpec{
		N: 5000, World: world, Dist: mobility.Gaussian, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	bg := privacy.Constant(privacy.Requirement{K: 10})
	for i, p := range crowd {
		id := uint64(i + 100)
		if err := anon.Register(id, bg); err != nil {
			log.Fatal(err)
		}
		if _, err := anon.Update(id, p); err != nil {
			log.Fatal(err)
		}
	}

	// Our user tries the service at four privacy levels.
	route := []geo.Point{{X: 0.31, Y: 0.44}, {X: 0.52, Y: 0.49}, {X: 0.68, Y: 0.61}}
	fmt.Println("privacy level sweep — nearest restaurant along a walk:")
	fmt.Printf("%-6s %-12s %-14s %-12s %-10s\n", "k", "stop", "nearest", "candidates", "bytes")
	for _, k := range []int{1, 10, 100, 500} {
		uid := uint64(1000000 + k) // a fresh identity per privacy level
		if err := anon.Register(uid, privacy.Constant(privacy.Requirement{K: k})); err != nil {
			log.Fatal(err)
		}
		for si, stop := range route {
			if _, err := anon.Update(uid, stop); err != nil {
				log.Fatal(err)
			}
			// Cloak at the anonymizer, candidates from the server, the
			// answer picked on the device.
			cloaked, err := anon.CloakQuery(uid, stop)
			if err != nil {
				log.Fatal(err)
			}
			nn, err := srv.PrivateNN(server.PrivateNNQuery{Region: cloaked.Region, Class: "restaurant"})
			if err != nil {
				log.Fatal(err)
			}
			best, _ := server.RefineNN(stop, nn.Candidates)
			fmt.Printf("%-6d stop %-7d #%-5d %.4f   %-12d %-10d\n", k, si+1, best.ID,
				stop.Dist(best.Loc), len(nn.Candidates), server.TransmissionCost(nn.Candidates))
		}
	}

	// Range query flavor: everything within walking distance.
	fmt.Println("\ngas stations within 0.08 of the second stop (k=100):")
	uid := uint64(1000100)
	cloaked, err := anon.CloakQuery(uid, route[1])
	if err != nil {
		log.Fatal(err)
	}
	cands, err := srv.PrivateRange(server.PrivateRangeQuery{Region: cloaked.Region, Radius: 0.08, Class: "gas"})
	if err != nil {
		log.Fatal(err)
	}
	within := server.RefineRange(route[1], 0.08, cands)
	for i, o := range within {
		if i >= 5 {
			fmt.Printf("  ... and %d more\n", len(within)-5)
			break
		}
		fmt.Printf("  #%d at %v (%.4f away)\n", o.ID, o.Loc, route[1].Dist(o.Loc))
	}
	fmt.Printf("answer: %d stations from %d candidates (%d bytes shipped)\n",
		len(within), len(cands), server.TransmissionCost(cands))
	fmt.Println("\nnote how k=1 gets pinpoint answers with minimal transfer while")
	fmt.Println("k=500 pays in candidates — the trade-off each profile entry tunes.")
}
