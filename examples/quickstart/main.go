// Quickstart: build the paper's platooning scenario, run the golden run,
// then inject one delay attack and compare the outcomes — the minimal
// end-to-end tour of the ComFASE-Go API.
package main

import (
	"fmt"
	"log"

	"comfase/internal/core"
	"comfase/internal/scenario"
	"comfase/internal/sim/des"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Step-1 (Algorithm 1): configure the traffic scenario and the
	// communication model. The helpers reproduce §IV-A of the paper: a
	// 4-vehicle CACC platoon driving a sinusoidal maneuver on a 4-lane
	// highway, beaconing 200-bit CAMs at 10 Hz over IEEE 802.11p.
	eng, err := core.NewEngine(core.EngineConfig{
		Scenario: scenario.PaperScenario(),
		Comm:     scenario.PaperCommModel(),
		Seed:     1,
	})
	if err != nil {
		return err
	}

	// Step-2: the golden run (attack-free reference).
	_, golden, err := eng.GoldenRun()
	if err != nil {
		return err
	}
	fmt.Printf("golden run: max deceleration %.2f m/s^2, %d beacons delivered, no collisions\n",
		golden.MaxDecel, golden.Deliveries)

	// Step-3: one attack experiment. Delay every message to and from
	// Vehicle 2 by 2 s, starting at t=18 s for 10 s.
	res, err := eng.RunExperiment(core.ExperimentSpec{
		Attack:   "delay",
		Targets:  []string{"vehicle.2"},
		Value:    2.0,
		Start:    18 * des.Second,
		Duration: 10 * des.Second,
	})
	if err != nil {
		return err
	}

	// Step-4: the classification against the golden run.
	fmt.Printf("delay attack (PD=2s, 18s..28s): outcome=%s max decel=%.2f m/s^2\n",
		res.Outcome, res.MaxDecel)
	for _, c := range res.Collisions {
		fmt.Printf("  collision: %s\n", c)
	}
	return nil
}
