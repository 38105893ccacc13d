// Quickstart: assemble the privacy-aware LBS stack in process — the
// database server, and the Location Anonymizer forwarding cloaked regions
// to it — register a mobile user with the paper's example privacy profile,
// stream a location update, and run one private nearest-neighbor query end
// to end.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/anonymizer"
	"repro/internal/geo"
	"repro/internal/privacy"
	"repro/internal/server"
)

func main() {
	world := geo.R(0, 0, 1, 1)

	// Pin the clock to the evening so the profile's k=100 entry applies.
	evening := func() time.Time { return time.Date(2026, 7, 4, 19, 0, 0, 0, time.UTC) }

	srv, err := server.New(server.Config{World: world})
	if err != nil {
		log.Fatal(err)
	}
	anon, err := anonymizer.New(anonymizer.Config{
		World:      world,
		Algorithm:  anonymizer.AlgQuadtree,
		Clock:      evening,
		ForwardCtx: srv.UpdatePrivateCtx, // only cloaked regions cross to the server
	})
	if err != nil {
		log.Fatal(err)
	}

	// A small city: 2000 anonymous residents and 300 gas stations.
	if err := loadDemoData(anon, srv); err != nil {
		log.Fatal(err)
	}

	// Register "Alice" with the paper's Figure 2 profile, scaled to the
	// unit world (areas in the paper are square miles; here the world is
	// 1×1, so scale them down).
	alice := uint64(9001)
	profile := privacy.PaperExample().ScaleAreas(1.0 / 400)
	if err := anon.Register(alice, profile); err != nil {
		log.Fatal(err)
	}

	// Alice reports her location; only a cloaked region reaches the server.
	here := geo.Pt(0.42, 0.58)
	upd, err := anon.Update(alice, here)
	if err != nil {
		log.Fatal(err)
	}
	region, _ := srv.PrivateRegion(alice)
	fmt.Printf("Alice is at %v; the server only sees %v (area %.4f)\n", here, region, upd.Region.Area())

	// Private query "where is my nearest gas station?" in three steps: the
	// anonymizer cloaks Alice, the server answers for the whole region, and
	// her device picks the answer from the candidates.
	cloaked, err := anon.CloakQuery(alice, here)
	if err != nil {
		log.Fatal(err)
	}
	nn, err := srv.PrivateNN(server.PrivateNNQuery{Region: cloaked.Region, Class: "gas"})
	if err != nil {
		log.Fatal(err)
	}
	station, ok := server.RefineNN(here, nn.Candidates)
	if !ok {
		log.Fatal("no gas stations")
	}
	fmt.Printf("nearest gas station: #%d at %v (%.4f away)\n",
		station.ID, station.Loc, here.Dist(station.Loc))
	fmt.Printf("privacy cost: the server shipped %d candidates (%d bytes) for a region of area %.4f\n",
		len(nn.Candidates), server.TransmissionCost(nn.Candidates), cloaked.Region.Area())

	// Admin query: "how many users downtown right now?" — probabilistic,
	// asked of the server directly.
	downtown := geo.R(0.3, 0.3, 0.7, 0.7)
	count, err := srv.PublicRangeCount(server.PublicRangeCountQuery{Query: downtown})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("users downtown: expected %.1f, certainly within [%d, %d] (naive count: %d)\n",
		count.Answer.Expected, count.Answer.Lo, count.Answer.Hi, count.NaiveCount)
}

// loadDemoData registers 2000 background users on a jittered grid and 300
// gas stations.
func loadDemoData(anon *anonymizer.Anonymizer, srv *server.Server) error {
	prof := privacy.Constant(privacy.Requirement{K: 20})
	id := uint64(1)
	for i := 0; i < 2000; i++ {
		x := float64(i%45)/45 + float64(i%7)*0.001
		y := float64(i/45)/45 + float64(i%11)*0.0005
		if x >= 1 {
			x = 0.999
		}
		if y >= 1 {
			y = 0.999
		}
		if err := anon.Register(id, prof); err != nil {
			return err
		}
		if _, err := anon.Update(id, geo.Pt(x, y)); err != nil {
			return err
		}
		id++
	}
	objs := make([]server.PublicObject, 0, 300)
	for i := 0; i < 300; i++ {
		x := float64(i%17)/17 + 0.02
		y := float64(i/17)/18 + 0.03
		objs = append(objs, server.PublicObject{
			ID: uint64(i + 1), Class: "gas", Loc: geo.Pt(x, y),
		})
	}
	return srv.LoadStationary(objs)
}
