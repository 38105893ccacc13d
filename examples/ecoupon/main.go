// Ecoupon: the public nearest-neighbor query over private data of
// Figure 6b. A gas station wants to send a personalized e-coupon to its
// nearest mobile user, but every user is cloaked. The example shows the
// candidate set after min–max pruning, the probability assignment, all
// three answer formats, and — since this is a simulation that knows the
// ground truth — how often the most-likely answer is actually right.
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

	// 3000 cloaked customers around town.
	pts, err := mobility.GeneratePoints(mobility.PopulationSpec{
		N: 3000, World: world, Dist: mobility.Gaussian, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	prof := privacy.Constant(privacy.Requirement{K: 40})
	for i, p := range pts {
		id := uint64(i + 1)
		if err := anon.Register(id, prof); err != nil {
			log.Fatal(err)
		}
		if _, err := anon.Update(id, p); err != nil {
			log.Fatal(err)
		}
	}

	station := geo.Pt(0.47, 0.53)
	fmt.Printf("gas station at %v asks: who is my nearest customer?\n\n", station)

	res, err := srv.PublicNN(server.PublicNNQuery{From: station})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("min–max pruning eliminated %d of %d users\n", res.PrunedCount,
		res.PrunedCount+len(res.Candidates))

	// Format 1: the candidate set.
	fmt.Printf("\nformat 1 — potential nearest users (%d candidates, top 8):\n", len(res.Candidates))
	for i, c := range res.Candidates {
		if i >= 8 {
			break
		}
		region := res.CandidateRegions[c.ID]
		fmt.Printf("  user %-5d P=%.3f  region %v\n", c.ID, c.Prob, region)
	}

	// Format 2: the single most likely.
	fmt.Printf("\nformat 2 — most likely nearest: user %d (P=%.3f) → send the coupon there\n",
		res.Best.ID, res.Best.Prob)

	// Format 3: the probability density function is the Candidates slice
	// itself — (user, probability) pairs.
	var mass float64
	for _, c := range res.Candidates {
		mass += c.Prob
	}
	fmt.Printf("format 3 — PDF over candidates, total mass %.3f\n", mass)

	// Ground truth (the simulator knows it; the server never does).
	bestD := -1.0
	var trueNN uint64
	for i, p := range pts {
		d := station.Dist2(p)
		if bestD < 0 || d < bestD {
			bestD, trueNN = d, uint64(i+1)
		}
	}
	fmt.Printf("\nground truth: the actually-nearest user is %d", trueNN)
	if trueNN == res.Best.ID {
		fmt.Println(" — the coupon reached the right person.")
	} else {
		var p float64
		for _, c := range res.Candidates {
			if c.ID == trueNN {
				p = c.Prob
				break
			}
		}
		fmt.Printf(", who was candidate P=%.3f — the cloaking kept her identity\n", p)
		fmt.Println("uncertain, which is exactly the privacy the profile bought.")
	}

	// Repeat from many stations to estimate coupon accuracy.
	fmt.Println("\ncoupon accuracy over 40 stations:")
	hits := 0
	for i := 0; i < 40; i++ {
		q := geo.Pt(float64(i%8)/8+0.05, float64(i/8)/5+0.07)
		r, err := srv.PublicNN(server.PublicNNQuery{From: q})
		if err != nil {
			log.Fatal(err)
		}
		bd := -1.0
		var tn uint64
		for j, p := range pts {
			d := q.Dist2(p)
			if bd < 0 || d < bd {
				bd, tn = d, uint64(j+1)
			}
		}
		if r.Best.ID == tn {
			hits++
		}
	}
	fmt.Printf("most-likely answer was the true nearest user %d/40 times\n", hits)
	fmt.Println("(raise k in the profiles and this drops; lower it and it rises)")
}
