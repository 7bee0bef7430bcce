package fabric

import (
	"context"
	"testing"

	"comfase/internal/obs"
)

// executorMatrixConfig is a 2-scenario x 1-attack matrix on a 6 s
// horizon: 2 grid points per scenario cell, expNrs 0-1 and 2-3.
const executorMatrixConfig = `{"matrix": {
  "scenarios": [
    {"name": "platoon", "label": "a", "params": {"totalSimTimeS": 6}},
    {"name": "platoon", "label": "b", "params": {"totalSimTimeS": 6, "nrVehicles": 3}}],
  "attacks": [{"name": "delay",
    "valuesS": {"values": [0.3, 1.0]}, "startTimesS": {"values": [2]}, "durationsS": {"values": [1]}}]}}`

// TestExecutorBuildsEachEngineOnce pins the executor's engine lifetime:
// one worker process runs every lease of a campaign through one grid, so
// each scenario's engine is built and its golden run simulated once, not
// once per lease — for a matrix and for a single campaign alike.
func TestExecutorBuildsEachEngineOnce(t *testing.T) {
	for _, tc := range []struct {
		name   string
		config string
		leases [][2]int
		golden uint64
	}{
		{"matrix", executorMatrixConfig, [][2]int{{0, 1}, {1, 3}, {3, 4}}, 2},
		{"single", e2eConfig, [][2]int{{0, 4}, {4, 8}, {8, 12}}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			ex, err := NewExecutor([]byte(tc.config), ExecutorOptions{Workers: 1, Metrics: reg})
			if err != nil {
				t.Fatalf("NewExecutor: %v", err)
			}
			for _, l := range tc.leases {
				rows, fails, err := ex.Execute(context.Background(), l[0], l[1])
				if err != nil {
					t.Fatalf("Execute%v: %v", l, err)
				}
				if len(rows)+len(fails) != l[1]-l[0] {
					t.Fatalf("Execute%v returned %d rows + %d failures, want %d",
						l, len(rows), len(fails), l[1]-l[0])
				}
				for i, row := range rows {
					if row.Nr != l[0]+i {
						t.Fatalf("Execute%v row %d has expNr %d", l, i, row.Nr)
					}
				}
			}
			if got := reg.Counter("engine.golden_runs").Load(); got != tc.golden {
				t.Errorf("engine.golden_runs = %d over %d leases, want %d", got, len(tc.leases), tc.golden)
			}
		})
	}
}
