package core

import (
	"testing"

	"comfase/internal/classify"
	"comfase/internal/scenario"
	"comfase/internal/sim/des"
)

func TestNewJammingAttackValidation(t *testing.T) {
	if _, err := NewJammingAttack(23); err == nil {
		t.Error("no targets accepted")
	}
	a, err := NewJammingAttack(23, "vehicle.2")
	if err != nil {
		t.Fatalf("NewJammingAttack: %v", err)
	}
	if a.Name() != "jamming" || a.PowerDBm() != 23 {
		t.Errorf("a = %v %v", a.Name(), a.PowerDBm())
	}
}

func TestJammingInstallOnUnknownVehicle(t *testing.T) {
	a, _ := NewJammingAttack(23, "vehicle.99")
	sim, err := scenario.Build(scenario.PaperScenario(), scenario.PaperCommModel(), 1, nil)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := a.Install(sim); err == nil {
		t.Error("install on unknown vehicle accepted")
	}
}

func TestJammingInstallUninstallLifecycle(t *testing.T) {
	a, _ := NewJammingAttack(23, "vehicle.2")
	sim, err := scenario.Build(scenario.PaperScenario(), scenario.PaperCommModel(), 1, nil)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := a.Uninstall(sim); err == nil {
		t.Error("uninstall before install accepted")
	}
	if err := a.Install(sim); err != nil {
		t.Fatalf("Install: %v", err)
	}
	if err := a.Install(sim); err == nil {
		t.Error("double install accepted")
	}
	if err := a.Uninstall(sim); err != nil {
		t.Fatalf("Uninstall: %v", err)
	}
}

// TestJammingPowerThreshold checks the physical plausibility of the
// RF-jamming model end to end: a jammer far below the noise floor is
// invisible; a strong jammer riding with Vehicle 2 silences the platoon's
// V2V channel and causes collisions, like the paper's DoS model but
// through the PHY rather than the propagation-delay parameter.
func TestJammingPowerThreshold(t *testing.T) {
	eng, err := NewEngine(EngineConfig{
		Scenario: scenario.PaperScenario(),
		Comm:     scenario.PaperCommModel(),
		Seed:     1,
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	run := func(power float64) ExperimentResult {
		res, err := eng.RunExperiment(ExperimentSpec{
			Attack:   "jamming",
			Targets:  []string{"vehicle.2"},
			Value:    power,
			Start:    18 * des.Second,
			Duration: 10 * des.Second,
		})
		if err != nil {
			t.Fatalf("RunExperiment(%v dBm): %v", power, err)
		}
		return res
	}
	weak := run(-40)
	if weak.Outcome != classify.NonEffective {
		t.Errorf("-40 dBm jammer outcome = %v, want non-effective", weak.Outcome)
	}
	strong := run(23)
	if strong.Outcome != classify.Severe || !strong.Collided() {
		t.Errorf("23 dBm jammer outcome = %v (collisions %d), want severe collision",
			strong.Outcome, len(strong.Collisions))
	}
}
