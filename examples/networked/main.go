// Networked: the full three-tier architecture of Figure 1 over real TCP —
// a database server process, a Location Anonymizer forwarding to it, a
// mobile user client talking only to the anonymizer, and an untrusted
// third-party client querying the database directly. Everything runs on
// loopback inside this one program so the example is self-contained, but
// each tier communicates exclusively through the wire protocol.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/geo"
	"repro/internal/mobility"
	"repro/internal/privacy"
	"repro/internal/protocol"
	"repro/internal/server"
	"repro/internal/stack"
)

func main() {
	world := stack.World

	// Tiers 2 and 3: the Location Anonymizer forwarding cloaked regions
	// over TCP to the privacy-aware database server, with the daemons'
	// defaults.
	st, err := stack.Boot(stack.Topology{})
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	fmt.Printf("database server    : %s\n", st.DBAddr())
	fmt.Printf("location anonymizer: %s\n\n", st.AnonAddr())

	// Tier 1a: mobile users connect to the anonymizer only.
	user, err := protocol.DialAnonymizer(st.AnonAddr(), protocol.WithCallTimeout(10*time.Second))
	if err != nil {
		log.Fatal(err)
	}
	defer user.Close()

	// Tier 1b: an untrusted third party connects to the database only.
	admin, err := protocol.DialDatabase(st.DBAddr(), protocol.WithCallTimeout(10*time.Second))
	if err != nil {
		log.Fatal(err)
	}
	defer admin.Close()

	// Load public data through the admin path.
	poiPts, err := mobility.GeneratePoints(mobility.PopulationSpec{
		N: 400, World: world, Dist: mobility.Uniform, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	objs := make([]server.PublicObject, len(poiPts))
	for i, p := range poiPts {
		objs[i] = server.PublicObject{ID: uint64(i + 1), Class: "hospital", Loc: p}
	}
	if err := admin.LoadStationary(objs); err != nil {
		log.Fatal(err)
	}

	// A thousand users stream updates through the anonymizer.
	userPts, err := mobility.GeneratePoints(mobility.PopulationSpec{
		N: 1000, World: world, Dist: mobility.Gaussian, Seed: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	prof := privacy.Constant(privacy.Requirement{K: 25})
	for i, p := range userPts {
		id := uint64(i + 1)
		if err := user.Register(id, prof); err != nil {
			log.Fatal(err)
		}
		if _, err := user.Update(id, p); err != nil {
			log.Fatal(err)
		}
	}
	stationary, private, err := admin.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server state: %d public objects, %d cloaked users\n\n", stationary, private)

	// Private query flow: cloak at the anonymizer, candidates from the
	// server, refinement on the device.
	me := uint64(77)
	loc := userPts[me-1]
	cres, err := user.CloakQuery(me, loc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("user %d (exact %v) cloaked to %v\n", me, loc, cres.Region)
	nn, err := admin.PrivateNN(server.PrivateNNQuery{Region: cres.Region, Class: "hospital"})
	if err != nil {
		log.Fatal(err)
	}
	best, _ := server.RefineNN(loc, nn.Candidates)
	fmt.Printf("nearest hospital: #%d at %v — refined on-device from %d candidates\n\n",
		best.ID, best.Loc, len(nn.Candidates))

	// Untrusted-party queries over the wire.
	area := geo.R(0.4, 0.4, 0.6, 0.6)
	cnt, err := admin.PublicCount(area)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("admin count in %v: expected %.1f, interval [%d,%d]\n",
		area, cnt.Answer.Expected, cnt.Answer.Lo, cnt.Answer.Hi)

	pnn, err := admin.PublicNN(server.PublicNNQuery{From: geo.Pt(0.5, 0.5), Samples: 1000, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("admin nearest-user: %d candidates after pruning %d; best user %d (P=%.3f)\n",
		len(pnn.Candidates), pnn.PrunedCount, pnn.Best.ID, pnn.Best.Prob)
	fmt.Println("\nnote: the database server process never received a single exact")
	fmt.Println("user location — the only path carrying points ends at the anonymizer.")
}
