// Single-experiment case study: dissect one severe delay attack in
// detail. The example runs the golden run and one attacked run with full
// per-vehicle logging, prints the gap evolution around the collision,
// and writes both trajectories as CSV files for plotting.
package main

import (
	"fmt"
	"log"
	"os"

	"comfase/internal/core"
	"comfase/internal/scenario"
	"comfase/internal/sim/des"
	"comfase/internal/trace"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	eng, err := core.NewEngine(core.EngineConfig{
		Scenario: scenario.PaperScenario(),
		Comm:     scenario.PaperCommModel(),
		Seed:     1,
	})
	if err != nil {
		return err
	}
	goldenLog, golden, err := eng.GoldenRun()
	if err != nil {
		return err
	}
	fmt.Printf("golden run: max deceleration %.2f m/s^2\n", golden.MaxDecel)

	spec := core.ExperimentSpec{
		Attack:   "delay",
		Targets:  []string{"vehicle.2"},
		Value:    2.0,
		Start:    18 * des.Second,
		Duration: 10 * des.Second,
	}
	res, attackLog, err := eng.RunExperimentWithLog(spec)
	if err != nil {
		return err
	}
	fmt.Printf("attack (%s): outcome=%s, max decel %.2f m/s^2\n",
		spec, res.Outcome, res.MaxDecel)
	for _, c := range res.Collisions {
		fmt.Printf("  collision: %s\n", c)
	}

	// Gap evolution every second around the attack window.
	fmt.Println("\n  t(s)   gap12   gap23   gap34   (m, attacked run)")
	for sec := 16; sec <= 26; sec++ {
		idx := sec * 100 // 10 ms sampling
		if idx >= attackLog.Len() {
			break
		}
		fmt.Printf("  %4d %7.2f %7.2f %7.2f\n", sec,
			gap(attackLog, idx, 0, 1), gap(attackLog, idx, 1, 2), gap(attackLog, idx, 2, 3))
	}

	if err := writeCSV("golden.csv", goldenLog); err != nil {
		return err
	}
	if err := writeCSV("attack.csv", attackLog); err != nil {
		return err
	}
	fmt.Println("\ntrajectories written to golden.csv and attack.csv")
	return nil
}

// gap returns the bumper-to-bumper gap between vehicles front and back
// at sample idx (4 m vehicle length).
func gap(l *trace.FullLog, idx, front, back int) float64 {
	return l.At(idx, front).Pos - 4 - l.At(idx, back).Pos
}

func writeCSV(path string, l *trace.FullLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := l.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
