package core_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"comfase/internal/core"
	"comfase/internal/phy"
	"comfase/internal/runner"
	"comfase/internal/scenario"
	"comfase/internal/sim/des"
	"comfase/internal/sim/rng"
)

// The campaign loop lives in runner.Runner; these tests pin the
// campaign-level contract core's grid and engine types must keep under
// it: invalid grids are rejected, and progress over a parallel run
// covers every grid point in completion order.

func runnerFor(t *testing.T, opts runner.Options) *runner.Runner {
	t.Helper()
	eng, err := core.NewEngine(core.EngineConfig{
		Scenario: scenario.PaperScenario(),
		Comm:     scenario.PaperCommModel(),
		Seed:     1,
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	r, err := runner.New(eng, opts)
	if err != nil {
		t.Fatalf("runner.New: %v", err)
	}
	return r
}

// smallGrid is 12 delay experiments on the paper scenario.
func smallGrid() core.CampaignSetup {
	return core.CampaignSetup{
		Attack:    "delay",
		Targets:   []string{"vehicle.2"},
		Values:    []float64{0.4, 2.0},
		Starts:    []des.Time{17 * des.Second, 19800 * des.Millisecond, 21 * des.Second},
		Durations: []des.Time{2 * des.Second, 10 * des.Second},
	}
}

func TestRunCampaignRejectsInvalidSetup(t *testing.T) {
	r := runnerFor(t, runner.Options{Workers: 1})
	if _, err := r.Run(context.Background(), core.CampaignSetup{}); err == nil {
		t.Error("invalid setup accepted")
	}
}

func TestParallelRejectsInvalidSetup(t *testing.T) {
	r := runnerFor(t, runner.Options{Workers: 2})
	if _, err := r.Run(context.Background(), core.CampaignSetup{}); err == nil {
		t.Error("invalid setup accepted")
	}
}

func TestParallelProgressCoversAll(t *testing.T) {
	if testing.Short() {
		t.Skip("12 experiments in -short mode")
	}
	var calls atomic.Int64
	var sawTotal atomic.Int64
	r := runnerFor(t, runner.Options{Workers: 3, Progress: func(done, total int) {
		calls.Add(1)
		sawTotal.Store(int64(total))
	}})
	if _, err := r.Run(context.Background(), smallGrid()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if calls.Load() != 12 || sawTotal.Load() != 12 {
		t.Errorf("progress calls = %d (total %d), want 12", calls.Load(), sawTotal.Load())
	}
}

// TestParallelProgressMonotonic guarantees the Progress callback sees
// strictly increasing done counts (completion order, not grid order).
func TestParallelProgressMonotonic(t *testing.T) {
	if testing.Short() {
		t.Skip("12 experiments in -short mode")
	}
	var mu sync.Mutex
	var dones []int
	r := runnerFor(t, runner.Options{Workers: 4, Progress: func(done, total int) {
		mu.Lock()
		dones = append(dones, done)
		mu.Unlock()
		if total != 12 {
			t.Errorf("total = %d, want 12", total)
		}
	}})
	if _, err := r.Run(context.Background(), smallGrid()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(dones) != 12 {
		t.Fatalf("progress called %d times, want 12", len(dones))
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("progress done sequence %v not monotonically increasing", dones)
		}
	}
}

// TestBeginGroupRejectsFadingChannel: a fading channel cannot be
// checkpointed, so BeginGroup refuses it — and the runner, which tries
// a group session for every multi-experiment same-start group, must
// fall back to fresh builds and still complete the grid.
func TestBeginGroupRejectsFadingChannel(t *testing.T) {
	ts := scenario.PaperScenario()
	ts.TotalSimTime = 30 * des.Second
	comm := scenario.PaperCommModel()
	comm.Channel.Fading = phy.NewNakagamiFading(rng.New(1, "fading"))
	eng, err := core.NewEngine(core.EngineConfig{Scenario: ts, Comm: comm, Seed: 7})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if _, err := eng.BeginGroup(context.Background(), 19*des.Second); !errors.Is(err, core.ErrNotCheckpointable) {
		t.Fatalf("err = %v, want ErrNotCheckpointable", err)
	}
	r, err := runner.New(eng, runner.Options{Workers: 1})
	if err != nil {
		t.Fatalf("runner.New: %v", err)
	}
	res, err := r.Run(context.Background(), core.CampaignSetup{
		Attack:    "delay",
		Targets:   []string{"vehicle.2"},
		Values:    []float64{0.4},
		Starts:    []des.Time{19 * des.Second},
		Durations: []des.Time{2 * des.Second, 5 * des.Second},
	})
	if err != nil {
		t.Fatalf("fallback Run: %v", err)
	}
	if len(res.Experiments) != 2 || len(res.Failures) != 0 {
		t.Errorf("fallback completed %d experiments (%d failed), want 2", len(res.Experiments), len(res.Failures))
	}
}
