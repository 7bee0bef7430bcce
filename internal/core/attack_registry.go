package core

import (
	"fmt"

	"comfase/internal/msg"
	"comfase/internal/registry/param"
	"comfase/internal/sim/des"
	"comfase/internal/sim/rng"
)

// AttackContext carries everything an attack builder may use to
// instantiate a model for one experiment.
type AttackContext struct {
	// Spec is the experiment being built; Spec.Value is the swept attack
	// value and Spec.Targets the attacked vehicles.
	Spec ExperimentSpec
	// Params is the validated parameter map (entry schema applied:
	// defaults filled, bounds checked).
	Params param.Params
	// Horizon is the totalSimTime (the DoS PD value).
	Horizon des.Time
	// Seed derives stochastic attack streams.
	Seed uint64
}

// AttackEntry is one registered attack/fault family.
type AttackEntry struct {
	// Name is the registry key; it is also the label written to result
	// CSVs and quarantine records.
	Name string
	// Desc is a one-line description for `comfase list`.
	Desc string
	// ValueDoc documents the meaning of the swept Value.
	ValueDoc string
	// AllowNegativeValues exempts the family from the non-negative
	// Value check (jamming powers in dBm are legitimately negative).
	AllowNegativeValues bool
	// Schema is the family's extra-parameter schema (nil = none).
	Schema param.Schema
	// Build instantiates the model for one experiment.
	Build func(AttackContext) (AttackModel, error)
}

var attacks = param.NewSet[AttackEntry]("attack")

// RegisterAttack adds an attack family to the registry. It panics on a
// duplicate or empty name, or a nil builder — registration happens at
// init time where such clashes are programming errors.
func RegisterAttack(e AttackEntry) {
	if e.Build == nil {
		panic(fmt.Sprintf("core: attack %q has no builder", e.Name))
	}
	attacks.Register(e.Name, e)
}

// LookupAttack returns the named attack family. Unknown names produce
// an error listing the accepted names with a nearest-match suggestion.
func LookupAttack(name string) (AttackEntry, error) {
	e, err := attacks.Lookup(name)
	if err != nil {
		return AttackEntry{}, fmt.Errorf("core: %w", err)
	}
	return e, nil
}

// AttackNames returns all registered attack names, sorted.
func AttackNames() []string { return attacks.Names() }

func init() {
	RegisterAttack(AttackEntry{
		Name:     "delay",
		Desc:     "delay attack: beacons from the target arrive PD seconds late",
		ValueDoc: "propagation delay PD in seconds",
		Build: func(ctx AttackContext) (AttackModel, error) {
			return NewDelayAttack(des.FromSeconds(ctx.Spec.Value), ctx.Spec.Targets...)
		},
	})
	RegisterAttack(AttackEntry{
		Name:     "dos",
		Desc:     "denial of service: beacons from the target never arrive",
		ValueDoc: "nominal PD in seconds (pinned to the horizon)",
		Build: func(ctx AttackContext) (AttackModel, error) {
			return NewDoSAttack(ctx.Horizon, ctx.Spec.Targets...)
		},
	})
	RegisterAttack(AttackEntry{
		Name:     "packet-loss",
		Desc:     "random packet loss on frames involving the target",
		ValueDoc: "drop probability in [0,1]",
		Build: func(ctx AttackContext) (AttackModel, error) {
			// The stream name is keyed by expNr so every grid point draws
			// an independent, reproducible Bernoulli sequence.
			stream := rng.New(ctx.Seed, fmt.Sprintf("attack.loss.%d", ctx.Spec.Nr))
			return NewPacketLossAttack(ctx.Spec.Value, stream, ctx.Spec.Targets...)
		},
	})
	RegisterAttack(AttackEntry{
		Name:     "replay",
		Desc:     "replay attack: frames from the target are re-delivered aged",
		ValueDoc: "replay age in seconds",
		Build: func(ctx AttackContext) (AttackModel, error) {
			return NewReplayAttack(des.FromSeconds(ctx.Spec.Value), ctx.Spec.Targets...)
		},
	})
	RegisterAttack(AttackEntry{
		Name:                "jamming",
		Desc:                "RF jammer shadowing the first target vehicle",
		ValueDoc:            "jammer transmit power in dBm (may be negative)",
		AllowNegativeValues: true,
		Build: func(ctx AttackContext) (AttackModel, error) {
			return NewJammingAttack(ctx.Spec.Value, ctx.Spec.Targets...)
		},
	})
	RegisterAttack(AttackEntry{
		Name:     "falsification",
		Desc:     "falsification attack: one kinematic field of the target's beacons is rewritten",
		ValueDoc: "offset added to (or factor applied to) the chosen field",
		Schema: param.Schema{
			{Name: "field", Kind: param.Enum, Default: "speed", Enum: []string{"pos", "speed", "accel"},
				Desc: "beacon field to falsify"},
			{Name: "mode", Kind: param.Enum, Default: "offset", Enum: []string{"offset", "scale"},
				Desc: "apply Value as an additive offset or a multiplicative factor"},
		},
		Build: func(ctx AttackContext) (AttackModel, error) {
			field, mode, v := ctx.Params.Str("field"), ctx.Params.Str("mode"), ctx.Spec.Value
			fn := func(b msg.Beacon) msg.Beacon {
				apply := func(x float64) float64 {
					if mode == "scale" {
						return x * v
					}
					return x + v
				}
				switch field {
				case "pos":
					b.Pos = apply(b.Pos)
				case "speed":
					b.Speed = apply(b.Speed)
				case "accel":
					b.Accel = apply(b.Accel)
				}
				return b
			}
			return NewFalsificationAttack(fn, ctx.Spec.Targets...)
		},
	})
	RegisterAttack(AttackEntry{
		Name:     "sybil",
		Desc:     "sybil attack: a fake platoon member broadcasts forged beacons near the first target",
		ValueDoc: "advertised deceleration magnitude in m/s^2 (forged Accel = -Value)",
		Schema: param.Schema{
			{Name: "index", Kind: param.Int, Default: 0, Min: param.Bound(0),
				Desc: "platoon index the fake node claims (0 = leader)"},
			{Name: "speedMps", Kind: param.Float, Default: 0, Min: param.Bound(0),
				Desc: "advertised speed in m/s"},
			{Name: "periodS", Kind: param.Float, Default: 0.1, Min: param.Bound(0.001),
				Desc: "forged-beacon period in seconds"},
		},
		Build: func(ctx AttackContext) (AttackModel, error) {
			index := ctx.Params.Int("index")
			speed := ctx.Params.Float("speedMps")
			decel := ctx.Spec.Value
			forge := func(now des.Time) msg.Beacon {
				return msg.Beacon{
					Source:       "sybil",
					PlatoonID:    "platoon.0",
					PlatoonIndex: index,
					Speed:        speed,
					Accel:        -decel,
					Length:       4,
				}
			}
			period := des.FromSeconds(ctx.Params.Float("periodS"))
			return NewSybilAttack(forge, period, ctx.Spec.Targets...)
		},
	})
	RegisterAttack(AttackEntry{
		Name:     "omission",
		Desc:     "omission fault: the target's transmitter silently drops every beacon",
		ValueDoc: "unused (sweep a single placeholder value)",
		Build: func(ctx AttackContext) (AttackModel, error) {
			return NewOmissionFault(ctx.Spec.Targets...)
		},
	})
	RegisterAttack(AttackEntry{
		Name:     "corruption",
		Desc:     "corruption fault: Gaussian noise on the target's transmitted kinematics",
		ValueDoc: "noise scale factor multiplying the sigma parameters (> 0)",
		Schema: param.Schema{
			{Name: "sigmaPosM", Kind: param.Float, Default: 1, Min: param.Bound(0),
				Desc: "position noise sigma in metres at Value=1"},
			{Name: "sigmaSpeedMps", Kind: param.Float, Default: 0.5, Min: param.Bound(0),
				Desc: "speed noise sigma in m/s at Value=1"},
			{Name: "sigmaAccelMps2", Kind: param.Float, Default: 0.5, Min: param.Bound(0),
				Desc: "acceleration noise sigma in m/s^2 at Value=1"},
		},
		Build: func(ctx AttackContext) (AttackModel, error) {
			v := ctx.Spec.Value
			stream := rng.New(ctx.Seed, fmt.Sprintf("fault.corruption.%d", ctx.Spec.Nr))
			return NewCorruptionFault(
				v*ctx.Params.Float("sigmaPosM"),
				v*ctx.Params.Float("sigmaSpeedMps"),
				v*ctx.Params.Float("sigmaAccelMps2"),
				stream, ctx.Spec.Targets...)
		},
	})
	RegisterAttack(AttackEntry{
		Name:     "calibration",
		Desc:     "calibration fault: constant offsets on the target's transmitted kinematics",
		ValueDoc: "offset scale factor multiplying the offset parameters (non-zero)",
		Schema: param.Schema{
			{Name: "posOffsetM", Kind: param.Float, Default: 2,
				Desc: "position offset in metres at Value=1"},
			{Name: "speedOffsetMps", Kind: param.Float, Default: 0,
				Desc: "speed offset in m/s at Value=1"},
			{Name: "accelOffsetMps2", Kind: param.Float, Default: 0,
				Desc: "acceleration offset in m/s^2 at Value=1"},
		},
		Build: func(ctx AttackContext) (AttackModel, error) {
			v := ctx.Spec.Value
			return NewCalibrationFault(
				v*ctx.Params.Float("posOffsetM"),
				v*ctx.Params.Float("speedOffsetMps"),
				v*ctx.Params.Float("accelOffsetMps2"),
				ctx.Spec.Targets...)
		},
	})
}
