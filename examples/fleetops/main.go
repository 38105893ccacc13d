// Fleetops: a delivery-fleet operations scenario exercising the continuous
// queries. Couriers are anonymized mobile users (their employer must not
// track them precisely); delivery trucks are public movers. A courier keeps
// a standing "trucks near me" monitor anchored at her cloaked region, and
// dispatch watches the depot zone's live occupancy — without the server
// ever seeing a courier's exact location.
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
	anon, err := anonymizer.New(anonymizer.Config{World: world, Incremental: true, ForwardCtx: srv.UpdatePrivateCtx})
	if err != nil {
		log.Fatal(err)
	}

	// 600 couriers walk the city; 15 trucks drive the road grid.
	courierSim, err := mobility.NewWaypointSim(mobility.WaypointConfig{
		Population: mobility.PopulationSpec{
			N: 600, World: world, Dist: mobility.Gaussian, Seed: 21,
		},
		MinSpeed: 0.004, MaxSpeed: 0.012,
	})
	if err != nil {
		log.Fatal(err)
	}
	net, err := mobility.NewRoadNetwork(world, 8, 8)
	if err != nil {
		log.Fatal(err)
	}
	truckSim, err := mobility.NewRoadSim(mobility.RoadConfig{
		Net: net, N: 15, MinSpeed: 0.3, MaxSpeed: 0.8, Seed: 22,
	})
	if err != nil {
		log.Fatal(err)
	}

	prof := privacy.Constant(privacy.Requirement{K: 20})
	for _, u := range courierSim.Users() {
		if err := anon.Register(u.ID, prof); err != nil {
			log.Fatal(err)
		}
		if _, err := anon.Update(u.ID, u.Loc); err != nil {
			log.Fatal(err)
		}
	}

	// Courier 7 monitors trucks within 0.15 of her: the server anchors
	// the standing query at her cloaked region, never at her location.
	courier := uint64(7)
	loc := courierSim.User(int(courier) - 1).Loc
	cloaked, err := anon.CloakQuery(courier, loc)
	if err != nil {
		log.Fatal(err)
	}
	watch, err := srv.RegisterContinuousPrivateRange(cloaked.Region, 0.15)
	if err != nil {
		log.Fatal(err)
	}

	// Dispatch monitors the depot zone live.
	depot := geo.R(0.35, 0.35, 0.65, 0.65)
	depotQ, err := srv.RegisterContinuousCount(depot)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("shift simulation (60 ticks):")
	for tick := 0; tick < 60; tick++ {
		courierSim.Tick()
		truckSim.Tick()
		for _, u := range courierSim.Users() {
			if _, err := anon.Update(u.ID, u.Loc); err != nil {
				log.Fatal(err)
			}
		}
		for _, tr := range truckSim.Users() {
			if err := srv.UpdateMoving(tr.ID, tr.Loc); err != nil {
				log.Fatal(err)
			}
		}
		// The courier re-anchors her monitor at a fresh cloak, and her
		// device refines its candidates locally.
		loc = courierSim.User(int(courier) - 1).Loc
		if tick%12 == 0 {
			if cloaked, err = anon.CloakQuery(courier, loc); err != nil {
				log.Fatal(err)
			}
			if err := srv.MoveContinuousPrivateRange(watch, cloaked.Region); err != nil {
				log.Fatal(err)
			}
			cands, _ := srv.ContinuousPrivateRange(watch)
			trucks := server.RefineRange(loc, 0.15, cands)
			ans, _ := srv.ContinuousCount(depotQ)
			fmt.Printf("  tick %2d: courier %d sees %d trucks nearby; depot live count E=%.1f [%d,%d]\n",
				tick, courier, len(trucks), ans.Expected, ans.Lo, ans.Hi)
		}
	}
}
