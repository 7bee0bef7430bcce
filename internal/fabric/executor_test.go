package fabric

import (
	"context"
	"fmt"
	"strings"
	"sync"
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
			ex, err := NewExecutor([]byte(tc.config), ExecutorOptions{Metrics: reg})
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

// concurrentExecConfig spans several attack starts, so disjoint leases
// run different same-start groups at once and later leases continue
// groups whose prefix roots other leases parked.
const concurrentExecConfig = `{
  "scenario": {"totalSimTimeS": 6},
  "campaign": {
    "attack": "delay",
    "valuesS": {"values": [0.3, 1.0]},
    "startTimesS": {"values": [1, 2, 3]},
    "durationsS": {"values": [1, 2, 3]}
  }
}`

// TestExecutorConcurrentLeasesMatchSequential drives one production
// executor the way a worker's lease loops do — concurrent Execute calls
// over disjoint ranges, twice over — and requires the lines to be
// byte-identical to a sequential Runner.Run. Run it under -race: the
// calls share the grid's engines, golden runs and parked prefixes.
func TestExecutorConcurrentLeasesMatchSequential(t *testing.T) {
	wantCSV, _ := sequentialReferenceFor(t, concurrentExecConfig)
	_, want, _ := strings.Cut(string(wantCSV), "\n") // drop the header
	ex, err := NewExecutor([]byte(concurrentExecConfig), ExecutorOptions{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	leases := [][2]int{{0, 4}, {4, 7}, {7, 13}, {13, 16}, {16, 18}}
	for round := 0; round < 2; round++ {
		lines := make([]string, len(leases))
		errs := make([]error, len(leases))
		var wg sync.WaitGroup
		for i, l := range leases {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rows, fails, err := ex.Execute(context.Background(), l[0], l[1])
				if err == nil && len(fails) > 0 {
					err = fmt.Errorf("%d quarantined", len(fails))
				}
				var b strings.Builder
				for _, r := range rows {
					b.WriteString(r.Line)
				}
				lines[i], errs[i] = b.String(), err
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d: Execute%v: %v", round, leases[i], err)
			}
		}
		if got := strings.Join(lines, ""); got != want {
			t.Errorf("round %d: concurrent leases differ from the sequential run:\n%s\nwant:\n%s", round, got, want)
		}
	}
}
