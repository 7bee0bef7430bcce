package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"comfase/internal/invariant"
	"comfase/internal/scenario"
	"comfase/internal/sim/des"
)

// fastEngine builds an engine on a shortened paper scenario (5 s horizon)
// so failure-path tests stay cheap.
func fastEngine(t *testing.T, mut func(*EngineConfig)) *Engine {
	t.Helper()
	ts := scenario.PaperScenario()
	ts.TotalSimTime = 5 * des.Second
	cfg := EngineConfig{Scenario: ts, Comm: scenario.PaperCommModel(), Seed: 1}
	if mut != nil {
		mut(&cfg)
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return eng
}

func fastSpec() ExperimentSpec {
	return ExperimentSpec{
		Attack:   "delay",
		Targets:  []string{"vehicle.2"},
		Value:    0.2,
		Start:    1 * des.Second,
		Duration: 1 * des.Second,
	}
}

func TestFailureClassRoundTrip(t *testing.T) {
	for c := FailError; c < numFailureClasses; c++ {
		got, err := ParseFailureClass(c.String())
		if err != nil {
			t.Fatalf("ParseFailureClass(%q): %v", c.String(), err)
		}
		if got != c {
			t.Errorf("round trip %v -> %q -> %v", c, c.String(), got)
		}
	}
	if _, err := ParseFailureClass("nope"); err == nil {
		t.Error("unknown class accepted")
	}
}

func TestClassifyFailure(t *testing.T) {
	wrap := func(err error) error { return errors.Join(errors.New("ctx"), err) }
	cases := []struct {
		err  error
		want FailureClass
	}{
		{&PanicError{Value: "boom"}, FailPanic},
		{wrap(des.ErrBudgetExceeded), FailBudget},
		{wrap(invariant.ErrInvariant), FailInvariant},
		{wrap(context.DeadlineExceeded), FailTimeout},
		{errors.New("plain"), FailError},
	}
	for _, c := range cases {
		if got := ClassifyFailure(c.err); got != c.want {
			t.Errorf("ClassifyFailure(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestRunExperimentPanicConverted(t *testing.T) {
	eng := fastEngine(t, nil)
	spec := fastSpec()
	spec.Factory = func(ExperimentSpec, des.Time, uint64) (AttackModel, error) {
		panic("factory boom")
	}
	_, err := eng.RunExperiment(spec)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "factory boom" || len(pe.Stack) == 0 {
		t.Errorf("PanicError = {%v, %d stack bytes}", pe.Value, len(pe.Stack))
	}
	if ClassifyFailure(err) != FailPanic {
		t.Errorf("class = %v, want panic", ClassifyFailure(err))
	}
	// The boundary must leave the engine healthy: a follow-up clean
	// experiment still works on a fresh workspace.
	if _, err := eng.RunExperiment(fastSpec()); err != nil {
		t.Fatalf("experiment after panic: %v", err)
	}
}

// panicInstaller is an attack model that panics mid-run, at Install time
// (attackStartTime) — the deepest point of the experiment, with the
// kernel live and the workspace mutated.
type panicInstaller struct{}

func (panicInstaller) Name() string                           { return "panic-installer" }
func (panicInstaller) Targets() []string                      { return []string{"vehicle.2"} }
func (panicInstaller) Install(*scenario.Simulation) error     { panic("install boom") }
func (p panicInstaller) Uninstall(*scenario.Simulation) error { return nil }

func TestRunExperimentPanicMidRunConverted(t *testing.T) {
	eng := fastEngine(t, nil)
	spec := fastSpec()
	spec.Factory = func(ExperimentSpec, des.Time, uint64) (AttackModel, error) {
		return panicInstaller{}, nil
	}
	_, err := eng.RunExperiment(spec)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if !strings.Contains(err.Error(), "install boom") {
		t.Errorf("err = %v, want panic value in message", err)
	}
	if _, err := eng.RunExperiment(fastSpec()); err != nil {
		t.Fatalf("experiment after mid-run panic: %v", err)
	}
}

func TestRunExperimentEventBudget(t *testing.T) {
	eng := fastEngine(t, func(cfg *EngineConfig) {
		cfg.EventBudget = 500 // a 5 s run needs thousands of events
		cfg.CancelCheckEvents = 128
	})
	// The budget is enforced on the interrupt-poll cadence; a cancelable
	// context installs the configured 128-event granularity (with an
	// uncancelable one the kernel polls every DefaultInterruptEvery
	// events, which a short run may never reach).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := eng.RunExperimentCtx(ctx, fastSpec())
	if !errors.Is(err, des.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if ClassifyFailure(err) != FailBudget {
		t.Errorf("class = %v, want event-budget", ClassifyFailure(err))
	}
}

func TestEngineInvariantsFlagPropagates(t *testing.T) {
	eng := fastEngine(t, func(cfg *EngineConfig) { cfg.Invariants = true })
	if !eng.Config().Scenario.Invariants {
		t.Fatal("EngineConfig.Invariants did not propagate into the scenario")
	}
	// A healthy run with invariants enabled completes normally.
	if _, err := eng.RunExperiment(fastSpec()); err != nil {
		t.Fatalf("healthy run with invariants: %v", err)
	}
}

func TestNewExperimentFailureRecord(t *testing.T) {
	spec := fastSpec()
	spec.Nr = 7
	f := NewExperimentFailure(spec, &PanicError{Value: "x", Stack: []byte("st")}, 3)
	if f.Nr != 7 || f.Attack != "delay" || f.Class != "panic" ||
		f.Stack != "st" || f.Attempts != 3 {
		t.Errorf("record = %+v", f)
	}
	if f.StartS != 1 || f.DurationS != 1 || f.Value != 0.2 {
		t.Errorf("spec projection = %+v", f)
	}
	g := NewExperimentFailure(spec, errors.New("plain"), 1)
	if g.Class != "error" || g.Stack != "" {
		t.Errorf("plain record = %+v", g)
	}
}

// TestExperimentFailureNamesRegistryFamily: a quarantine record names
// the experiment's registry family, including the extension families
// that only the registry knows by name.
func TestExperimentFailureNamesRegistryFamily(t *testing.T) {
	for _, name := range []string{"falsification", "sybil", "omission", "corruption", "calibration"} {
		spec := ExperimentSpec{Nr: 1, Attack: name, Targets: []string{"vehicle.2"}, Value: 1}
		if f := NewExperimentFailure(spec, errors.New("boom"), 1); f.Attack != name {
			t.Errorf("quarantine record for %q says attack %q", name, f.Attack)
		}
	}
}

func TestFailureCounts(t *testing.T) {
	var c FailureCounts
	for _, cl := range []FailureClass{FailPanic, FailPanic, FailTimeout, FailBudget, FailInvariant, FailError} {
		c.Add(cl)
	}
	if c.Panic != 2 || c.Timeout != 1 || c.Budget != 1 || c.Invariant != 1 || c.Error != 1 {
		t.Errorf("counts = %+v", c)
	}
	if c.Total() != 6 {
		t.Errorf("total = %d", c.Total())
	}
	if s := c.String(); !strings.Contains(s, "panic=2") {
		t.Errorf("String() = %q", s)
	}
}
