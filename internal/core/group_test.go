package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"comfase/internal/mac"
	"comfase/internal/nic"
	"comfase/internal/platoon"
	"comfase/internal/scenario"
	"comfase/internal/sim/des"
)

// groupEngine returns an engine on a shortened paper scenario so group
// tests stay fast while still covering an attack window with real
// braking dynamics.
func groupEngine(t *testing.T, mut func(*EngineConfig)) *Engine {
	t.Helper()
	ts := scenario.PaperScenario()
	ts.TotalSimTime = 30 * des.Second
	cfg := EngineConfig{
		Scenario: ts,
		Comm:     scenario.PaperCommModel(),
		Seed:     7,
	}
	if mut != nil {
		mut(&cfg)
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return eng
}

// groupSpecs is a sibling block sharing one start: the paper's delay
// attack on vehicle.2 with varying values and durations.
func groupSpecs(start des.Time) []ExperimentSpec {
	setup := CampaignSetup{
		Attack:    "delay",
		Targets:   []string{"vehicle.2"},
		Values:    []float64{0.4, 1.0, 2.0},
		Starts:    []des.Time{start},
		Durations: []des.Time{2 * des.Second, 5 * des.Second, 20 * des.Second},
	}
	return setup.Experiments()
}

// resultsEqual compares classified results to the bit level: forked runs
// must reproduce fresh runs exactly, not approximately.
func resultsEqual(a, b ExperimentResult) bool {
	if a.Spec.Nr != b.Spec.Nr || a.Outcome != b.Outcome || a.Collider != b.Collider {
		return false
	}
	if math.Float64bits(a.MaxDecel) != math.Float64bits(b.MaxDecel) ||
		math.Float64bits(a.MaxSpeedDev) != math.Float64bits(b.MaxSpeedDev) {
		return false
	}
	if !reflect.DeepEqual(a.MaxDecelPerVehicle, b.MaxDecelPerVehicle) {
		return false
	}
	return reflect.DeepEqual(a.Collisions, b.Collisions)
}

func TestGroupForkMatchesFreshRuns(t *testing.T) {
	specs := groupSpecs(19 * des.Second)

	fresh := groupEngine(t, nil)
	want := make([]ExperimentResult, len(specs))
	for i, spec := range specs {
		res, err := fresh.RunExperiment(spec)
		if err != nil {
			t.Fatalf("fresh %v: %v", spec, err)
		}
		want[i] = res
	}

	checkForkedGroup(t, context.Background(), groupEngine(t, nil), specs, want)
}

func TestGroupForkMatchesFreshWithBudgetAndInvariants(t *testing.T) {
	// Budget + invariants + cancelable context: the configuration the
	// campaign runner uses. The forked path must reproduce fresh results
	// under the full interrupt-poll cadence, not just the bare kernel.
	mut := func(cfg *EngineConfig) {
		cfg.Invariants = true
		cfg.EventBudget = 50_000_000
		cfg.CancelCheckEvents = 256
	}
	specs := groupSpecs(19 * des.Second)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	fresh := groupEngine(t, mut)
	want := make([]ExperimentResult, len(specs))
	for i, spec := range specs {
		res, err := fresh.RunExperimentCtx(ctx, spec)
		if err != nil {
			t.Fatalf("fresh %v: %v", spec, err)
		}
		want[i] = res
	}

	forked := groupEngine(t, mut)
	checkForkedGroup(t, ctx, forked, specs, want)
}

// checkForkedGroup runs the same-start specs through one group session
// and requires each forked result to equal the fresh one bit for bit,
// with the session still healthy afterwards.
func checkForkedGroup(t *testing.T, ctx context.Context, eng *Engine, specs []ExperimentSpec, want []ExperimentResult) {
	t.Helper()
	gs, err := eng.BeginGroup(ctx, specs[0].Start)
	if err != nil {
		t.Fatalf("BeginGroup: %v", err)
	}
	defer gs.Close()
	for i, spec := range specs {
		res, err := gs.RunExperiment(ctx, spec)
		if err != nil {
			t.Fatalf("forked %v: %v", spec, err)
		}
		if !resultsEqual(res, want[i]) {
			t.Errorf("experiment %d diverged:\nfresh  %+v\nforked %+v", spec.Nr, want[i], res)
		}
	}
	if !gs.Healthy() {
		t.Error("session unexpectedly poisoned")
	}
}

func TestGroupForkMatchesFreshJamming(t *testing.T) {
	// Jamming exercises the Installer path and noise receptions — the
	// reception-pool restore's hardest case.
	setup := CampaignSetup{
		Attack:    "jamming",
		Targets:   []string{"vehicle.2"},
		Values:    []float64{20, 30},
		Starts:    []des.Time{19 * des.Second},
		Durations: []des.Time{3 * des.Second, 8 * des.Second},
	}
	specs := setup.Experiments()

	fresh := groupEngine(t, nil)
	want := make([]ExperimentResult, len(specs))
	for i, spec := range specs {
		res, err := fresh.RunExperiment(spec)
		if err != nil {
			t.Fatalf("fresh %v: %v", spec, err)
		}
		want[i] = res
	}

	checkForkedGroup(t, context.Background(), groupEngine(t, nil), specs, want)
}

// hiddenStateController wraps a CACC but hides its state interface,
// modelling a user-supplied stateful controller the checkpoint layer
// cannot capture.
type hiddenStateController struct{ inner *platoon.CACC }

func (h hiddenStateController) Name() string { return "hidden" }
func (h hiddenStateController) Reset()       { h.inner.Reset() }
func (h hiddenStateController) Update(dt float64, self platoon.Snapshot, leader, pred platoon.KinState) float64 {
	return h.inner.Update(dt, self, leader, pred)
}

func TestBeginGroupRejectsOpaqueController(t *testing.T) {
	eng := groupEngine(t, func(cfg *EngineConfig) {
		cfg.Controllers = func(int) platoon.Controller {
			return hiddenStateController{inner: platoon.DefaultCACC()}
		}
	})
	_, err := eng.BeginGroup(context.Background(), 19*des.Second)
	if !errors.Is(err, ErrNotCheckpointable) {
		t.Fatalf("err = %v, want ErrNotCheckpointable", err)
	}
}

func TestGroupPanicTaintsAndHeals(t *testing.T) {
	// A model that panics during install taints the session — its
	// workspace may be corrupted, so it is discarded — but the session
	// stays healthy: the next fork rebuilds the prefix from scratch and
	// runs normally. The panic itself surfaces as a PanicError, identical
	// to the fresh path's containment.
	boom := func(spec ExperimentSpec, horizon des.Time, seed uint64) (AttackModel, error) {
		return panicOnInstallModel{}, nil
	}
	setup := CampaignSetup{
		Factory:   boom,
		Targets:   []string{"vehicle.2"},
		Values:    []float64{1},
		Starts:    []des.Time{19 * des.Second},
		Durations: []des.Time{2 * des.Second},
	}
	eng := groupEngine(t, nil)
	gs, err := eng.BeginGroup(context.Background(), 19*des.Second)
	if err != nil {
		t.Fatalf("BeginGroup: %v", err)
	}
	defer gs.Close()
	_, err = gs.RunExperiment(context.Background(), setup.Experiments()[0])
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
	if !gs.Healthy() {
		t.Fatal("panic must taint, not poison: session should stay healthy")
	}

	// The healed session must reproduce fresh results bit-for-bit.
	good := groupSpecs(19 * des.Second)[0]
	want, err := groupEngine(t, nil).RunExperiment(good)
	if err != nil {
		t.Fatalf("fresh %v: %v", good, err)
	}
	got, err := gs.RunExperiment(context.Background(), good)
	if err != nil {
		t.Fatalf("healed forked %v: %v", good, err)
	}
	if !resultsEqual(got, want) {
		t.Errorf("healed session diverged:\nfresh  %+v\nforked %+v", want, got)
	}
}

func TestGroupRejectsWrongStart(t *testing.T) {
	eng := groupEngine(t, nil)
	gs, err := eng.BeginGroup(context.Background(), 19*des.Second)
	if err != nil {
		t.Fatalf("BeginGroup: %v", err)
	}
	defer gs.Close()
	spec := groupSpecs(18 * des.Second)[0]
	if _, err := gs.RunExperiment(context.Background(), spec); !errors.Is(err, ErrWrongGroup) {
		t.Fatalf("err = %v, want ErrWrongGroup", err)
	}
	if !gs.Healthy() {
		t.Error("wrong-start rejection must not poison the session")
	}
}

func TestGroupChainMatchesFreshRuns(t *testing.T) {
	// The checkpoint trie: per-value duration chains must reproduce fresh
	// runs bit-for-bit. groupSpecs expands value-major with ascending
	// durations, so consecutive same-value specs form the chains.
	specs := groupSpecs(19 * des.Second)

	fresh := groupEngine(t, nil)
	want := make([]ExperimentResult, len(specs))
	for i, spec := range specs {
		res, err := fresh.RunExperiment(spec)
		if err != nil {
			t.Fatalf("fresh %v: %v", spec, err)
		}
		want[i] = res
	}

	forked := groupEngine(t, nil)
	gs, err := forked.BeginGroup(context.Background(), specs[0].Start)
	if err != nil {
		t.Fatalf("BeginGroup: %v", err)
	}
	defer gs.Close()
	for i, spec := range specs {
		retain := i+1 < len(specs) && specs[i+1].Value == spec.Value
		res, err := gs.RunExperimentChained(context.Background(), spec, retain)
		if err != nil {
			t.Fatalf("chained %v: %v", spec, err)
		}
		if !resultsEqual(res, want[i]) {
			t.Errorf("experiment %d diverged:\nfresh   %+v\nchained %+v", spec.Nr, want[i], res)
		}
	}
	if !gs.Healthy() {
		t.Error("session unexpectedly poisoned")
	}
}

func TestGroupTriePanicPoisonsSubtreeOnly(t *testing.T) {
	// A panic at an inner trie node (a chained sibling's segment) must
	// fail only that subtree: the failing experiment surfaces a
	// PanicError exactly as the fresh path would, and the session heals
	// so the NEXT value chain reproduces fresh results bit-for-bit.
	const (
		start   = 19 * des.Second
		trigger = start + 3*des.Second // inside the 5s duration, past the 2s one
	)
	factory := func(spec ExperimentSpec, horizon des.Time, seed uint64) (AttackModel, error) {
		delay, err := NewDelayAttack(des.Time(spec.Value*float64(des.Second)), spec.Targets...)
		if err != nil {
			return nil, err
		}
		if spec.Value == 2.0 {
			return timeBombModel{inner: delay, trigger: trigger}, nil
		}
		return delay, nil
	}
	setup := CampaignSetup{
		Factory:   factory,
		Targets:   []string{"vehicle.2"},
		Values:    []float64{2.0, 0.4}, // bombed chain first, healthy chain second
		Starts:    []des.Time{start},
		Durations: []des.Time{2 * des.Second, 5 * des.Second},
	}
	specs := setup.Experiments()

	fresh := groupEngine(t, nil)
	want := make([]ExperimentResult, len(specs))
	for i, spec := range specs {
		res, err := fresh.RunExperiment(spec)
		if i == 1 {
			// The bomb triggers inside this spec's attacked window on the
			// fresh path too — parity with the chained failure below.
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("fresh %v: err = %v, want PanicError", spec, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("fresh %v: %v", spec, err)
		}
		want[i] = res
	}

	forked := groupEngine(t, nil)
	gs, err := forked.BeginGroup(context.Background(), start)
	if err != nil {
		t.Fatalf("BeginGroup: %v", err)
	}
	defer gs.Close()
	for i, spec := range specs {
		retain := i+1 < len(specs) && specs[i+1].Value == spec.Value
		res, err := gs.RunExperimentChained(context.Background(), spec, retain)
		if i == 1 {
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("chained %v: err = %v, want PanicError", spec, err)
			}
			if !gs.Healthy() {
				t.Fatal("inner-node panic must taint, not poison, the session")
			}
			continue
		}
		if err != nil {
			t.Fatalf("chained %v: %v", spec, err)
		}
		if !resultsEqual(res, want[i]) {
			t.Errorf("experiment %d diverged:\nfresh   %+v\nchained %+v", spec.Nr, want[i], res)
		}
	}
}

// timeBombModel is a chainable interceptor that panics as soon as it
// intercepts a frame at or past its trigger time. The panic is a pure
// function of simulation time, so fresh, forked and chained executions of
// the same spec fail identically — the ChainableModel contract holds even
// for the failure.
type timeBombModel struct {
	inner   *DelayAttack
	trigger des.Time
}

func (m timeBombModel) Name() string              { return "time-bomb" }
func (m timeBombModel) Targets() []string         { return m.inner.Targets() }
func (m timeBombModel) ChainableAcrossDurations() {}
func (m timeBombModel) Intercept(t des.Time, src, dst string, f mac.Frame) nic.Verdict {
	if t >= m.trigger {
		panic("time-bomb")
	}
	return m.inner.Intercept(t, src, dst, f)
}

// panicOnInstallModel panics when the engine installs it.
type panicOnInstallModel struct{}

func (panicOnInstallModel) Name() string      { return "panic-on-install" }
func (panicOnInstallModel) Targets() []string { return []string{"vehicle.2"} }
func (panicOnInstallModel) Install(*scenario.Simulation) error {
	panic("panic-on-install")
}
func (panicOnInstallModel) Uninstall(*scenario.Simulation) error { return nil }
