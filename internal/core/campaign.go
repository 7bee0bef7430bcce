package core

import (
	"errors"
	"fmt"
	"strings"

	"comfase/internal/registry/param"
	"comfase/internal/sim/des"
)

// ModelFactory builds a custom attack/fault model for one experiment.
// The paper stresses that "fault and attack models are implemented in
// separate scripts, facilitating addition of new models" (§V); a factory
// is the Go equivalent — any AttackModel (falsification forgers, sybil
// nodes, calibration faults, ...) can be swept over the campaign grid.
type ModelFactory func(spec ExperimentSpec, horizon des.Time, seed uint64) (AttackModel, error)

// CampaignSetup mirrors setCampaign(attackModel, targetVehicles,
// attackStartVector, attackValuesVector, attackEndVector) of Algorithm 1.
// The experiment grid is the cross product Starts x Values x Durations,
// exactly the paper's three nested loops.
type CampaignSetup struct {
	// Attack is the registry name of the attack family (the attackModel
	// parameter of Algorithm 1 line 4, e.g. "delay"). It is the label
	// written to result rows.
	Attack string
	// Params are extra attack parameters validated against the family's
	// registry schema (nil = all defaults).
	Params param.Params
	// Factory, when non-nil, builds a custom model per experiment instead
	// of the registry family (Attack then only provides the result label
	// and may be empty).
	Factory ModelFactory
	// Scenario labels the scenario cell these experiments run in; matrix
	// campaigns stamp it so sinks and classification can group per cell.
	// Empty for plain single-scenario campaigns.
	Scenario string
	// Base offsets the experiment numbers: the grid is numbered
	// Base..Base+NumExperiments()-1. Matrix campaigns use it to keep
	// expNr globally unique across cells; zero for plain campaigns.
	Base int
	// Targets are the attacked vehicle IDs (paper: "vehicle.2").
	Targets []string
	// Values is the attackValuesVector. Unit depends on the model:
	// seconds of propagation delay for delay/DoS/replay, drop
	// probability for packet loss (see each registry entry's ValueDoc).
	Values []float64
	// Starts is the attackStartVector.
	Starts []des.Time
	// Durations encodes the attackEndVector relative to each start
	// (paper: attackStartTime + 1..30 s). A duration that reaches past
	// the simulation horizon is clipped at totalSimTime, which is how
	// DoS campaigns express "until the simulation ends".
	Durations []des.Time
}

// Validate reports the first setup problem, or nil.
func (c CampaignSetup) Validate() error {
	// Resolve the attack family up front: named setups get schema and
	// bounds checking here, before any simulation runs.
	allowNegative := false
	if c.Attack != "" {
		entry, err := LookupAttack(c.Attack)
		if err != nil {
			return err
		}
		if _, err := entry.Schema.Apply(c.Params); err != nil {
			return fmt.Errorf("core: attack %q: %w", c.Attack, err)
		}
		allowNegative = entry.AllowNegativeValues
	} else if c.Factory == nil {
		return fmt.Errorf("core: campaign needs an attack (known attacks: %s)",
			strings.Join(AttackNames(), ", "))
	}
	switch {
	case c.Base < 0:
		return fmt.Errorf("core: negative experiment base %d", c.Base)
	case len(c.Targets) == 0:
		return errors.New("core: campaign needs target vehicles")
	case len(c.Values) == 0:
		return errors.New("core: campaign needs attack values")
	case len(c.Starts) == 0:
		return errors.New("core: campaign needs attack start times")
	case len(c.Durations) == 0:
		return errors.New("core: campaign needs attack durations")
	}
	// Jamming values are transmit powers in dBm and may legitimately be
	// negative; all other families use non-negative seconds/probabilities.
	if !allowNegative {
		for _, v := range c.Values {
			if v < 0 {
				return fmt.Errorf("core: negative attack value %v", v)
			}
		}
	}
	for _, s := range c.Starts {
		if s < 0 {
			return fmt.Errorf("core: negative attack start %v", s)
		}
	}
	for _, d := range c.Durations {
		if d <= 0 {
			return fmt.Errorf("core: non-positive attack duration %v", d)
		}
	}
	return nil
}

// NumExperiments returns the size of the experiment grid.
func (c CampaignSetup) NumExperiments() int {
	return len(c.Starts) * len(c.Values) * len(c.Durations)
}

// Experiments expands the grid in the paper's loop order (start, value,
// duration), numbering from Base.
func (c CampaignSetup) Experiments() []ExperimentSpec {
	out := make([]ExperimentSpec, 0, c.NumExperiments())
	n := c.Base
	for _, start := range c.Starts {
		for _, value := range c.Values {
			for _, dur := range c.Durations {
				out = append(out, ExperimentSpec{
					Nr:       n,
					Attack:   c.Attack,
					Params:   c.Params,
					Scenario: c.Scenario,
					Factory:  c.Factory,
					Targets:  c.Targets,
					Value:    value,
					Start:    start,
					Duration: dur,
				})
				n++
			}
		}
	}
	return out
}

// ExperimentSpec is one attack injection experiment of a campaign.
type ExperimentSpec struct {
	// Nr is the expNr of Algorithm 1 (globally unique across the cells
	// of a matrix campaign).
	Nr int
	// Attack is the registry name of the attack family; it is the label
	// written to result rows and quarantine records.
	Attack string
	// Params are the family's extra parameters (validated at build).
	Params param.Params
	// Scenario is the scenario-cell label ("" outside matrix campaigns).
	Scenario string
	// Factory builds a custom model for this experiment instead of the
	// registry family.
	Factory ModelFactory
	// Targets are the attacked vehicles.
	Targets []string
	// Value is the attack value (PD seconds, drop probability, ...).
	Value float64
	// Start is the attackStartTime.
	Start des.Time
	// Duration is attackEndTime - attackStartTime before horizon
	// clipping.
	Duration des.Time
}

// End returns the attackEndTime clipped at the horizon.
func (e ExperimentSpec) End(horizon des.Time) des.Time {
	end := e.Start.Add(e.Duration)
	if end > horizon {
		return horizon
	}
	return end
}

// String renders a compact experiment label.
func (e ExperimentSpec) String() string {
	return fmt.Sprintf("#%d %s value=%g start=%v dur=%v targets=%s",
		e.Nr, e.Attack, e.Value, e.Start, e.Duration, describeTargets(e.Targets))
}

// buildModel instantiates the attack model for one experiment through
// the attack registry (or the experiment's custom Factory). horizon is
// the totalSimTime (the DoS PD value); seed derives stochastic attack
// streams.
func (e ExperimentSpec) buildModel(horizon des.Time, seed uint64) (AttackModel, error) {
	if e.Factory != nil {
		model, err := e.Factory(e, horizon, seed)
		if err != nil {
			return nil, err
		}
		if model == nil {
			return nil, errors.New("core: model factory returned nil")
		}
		return model, nil
	}
	name := e.Attack
	entry, err := LookupAttack(name)
	if err != nil {
		return nil, err
	}
	params, err := entry.Schema.Apply(e.Params)
	if err != nil {
		return nil, fmt.Errorf("core: attack %q: %w", name, err)
	}
	model, err := entry.Build(AttackContext{Spec: e, Params: params, Horizon: horizon, Seed: seed})
	if err != nil {
		return nil, err
	}
	if model == nil {
		return nil, fmt.Errorf("core: attack %q builder returned nil", name)
	}
	return model, nil
}
