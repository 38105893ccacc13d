// Trafficcount: the public-query-over-private-data scenario of Figure 6a.
// A traffic administrator monitors how many mobile users are inside city
// districts while every user is cloaked. The example shows the three answer
// formats of the paper (expected value, interval, PDF), the naive
// solid-object baseline, and live continuous queries tracking a moving
// population.
package main

import (
	"fmt"
	"log"
	"strings"

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

	// A rush-hour population driving on a road grid.
	net, err := mobility.NewRoadNetwork(world, 12, 12)
	if err != nil {
		log.Fatal(err)
	}
	sim, err := mobility.NewRoadSim(mobility.RoadConfig{
		Net: net, N: 4000, MinSpeed: 0.1, MaxSpeed: 0.4, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	prof := privacy.Constant(privacy.Requirement{K: 30})
	for _, u := range sim.Users() {
		if err := anon.Register(u.ID, prof); err != nil {
			log.Fatal(err)
		}
		if _, err := anon.Update(u.ID, u.Loc); err != nil {
			log.Fatal(err)
		}
	}

	downtown := geo.R(0.35, 0.35, 0.65, 0.65)
	districts := []struct {
		name string
		rect geo.Rect
	}{
		{"downtown", downtown},
		{"northside", geo.R(0.0, 0.7, 1.0, 1.0)},
		{"west end", geo.R(0.0, 0.0, 0.25, 0.7)},
	}

	fmt.Println("district occupancy (all three answer formats of Figure 6a):")
	for _, d := range districts {
		res, err := srv.PublicRangeCount(server.PublicRangeCountQuery{Query: d.rect})
		if err != nil {
			log.Fatal(err)
		}
		truth := 0
		for _, u := range sim.Users() {
			if d.rect.Contains(u.Loc) {
				truth++
			}
		}
		fmt.Printf("\n%s (true count, unknown to the server: %d)\n", d.name, truth)
		fmt.Printf("  expected value : %.1f users\n", res.Answer.Expected)
		fmt.Printf("  interval       : [%d, %d]\n", res.Answer.Lo, res.Answer.Hi)
		fmt.Printf("  naive baseline : %d (counts every overlapping region)\n", res.NaiveCount)
		fmt.Printf("  PDF sketch     : %s\n", sketchPDF(res.Answer.PDF, res.Answer.Mode()))
	}

	fmt.Println("\nnote: the expected value rests on the paper's assumption that each")
	fmt.Println("user is uniformly distributed inside her region. Road-constrained")
	fmt.Println("populations violate it, so expect bias here; the interval answer is")
	fmt.Println("the distribution-free guarantee and always brackets the truth.")

	// Continuous monitoring: register a standing query and watch it track
	// the population as cars move.
	fmt.Println("\ncontinuous downtown monitor over 10 simulation ticks:")
	qid, err := srv.RegisterContinuousCount(downtown)
	if err != nil {
		log.Fatal(err)
	}
	for tick := 1; tick <= 10; tick++ {
		sim.Tick()
		for _, u := range sim.Users() {
			if _, err := anon.Update(u.ID, u.Loc); err != nil {
				log.Fatal(err)
			}
		}
		ans, _ := srv.ContinuousCount(qid)
		truth := 0
		for _, u := range sim.Users() {
			if downtown.Contains(u.Loc) {
				truth++
			}
		}
		fmt.Printf("  tick %2d: expected %7.1f  interval [%4d,%4d]  (truth %d)\n",
			tick, ans.Expected, ans.Lo, ans.Hi, truth)
	}
}

// sketchPDF renders the distribution around its mode as a tiny bar chart.
func sketchPDF(pdf []float64, mode int) string {
	lo := mode - 3
	if lo < 0 {
		lo = 0
	}
	hi := mode + 4
	if hi > len(pdf) {
		hi = len(pdf)
	}
	var b strings.Builder
	for i := lo; i < hi; i++ {
		bars := int(pdf[i] * 200)
		if bars > 10 {
			bars = 10
		}
		fmt.Fprintf(&b, "%d:%s ", i, strings.Repeat("▙", bars+1))
	}
	return b.String()
}
