package core

import (
	"fmt"

	"comfase/internal/registry/param"
	"comfase/internal/sim/des"
)

// CampaignEntry is one registered campaign preset: a named, ready-made
// CampaignSetup such as the paper's Table II grids.
type CampaignEntry struct {
	// Name is the registry key.
	Name string
	// Desc is a one-line description for `comfase list`.
	Desc string
	// Build returns a fresh setup (slices are not shared between calls).
	Build func() CampaignSetup
}

var campaigns = param.NewSet[CampaignEntry]("campaign")

// RegisterCampaign adds a campaign preset; it panics on duplicates.
func RegisterCampaign(e CampaignEntry) {
	if e.Build == nil {
		panic(fmt.Sprintf("core: campaign %q has no builder", e.Name))
	}
	campaigns.Register(e.Name, e)
}

// LookupCampaign returns the named preset, with nearest-match
// suggestions on unknown names.
func LookupCampaign(name string) (CampaignEntry, error) {
	e, err := campaigns.Lookup(name)
	if err != nil {
		return CampaignEntry{}, fmt.Errorf("core: %w", err)
	}
	return e, nil
}

// CampaignNames returns all registered preset names, sorted.
func CampaignNames() []string { return campaigns.Names() }

// MustCampaign returns the named preset's setup, panicking on unknown
// names (preset names are compile-time constants at call sites).
func MustCampaign(name string) CampaignSetup {
	e, err := LookupCampaign(name)
	if err != nil {
		panic(err)
	}
	return e.Build()
}

// paperTargets returns Table II's attacked vehicle set.
func paperTargets() []string { return []string{"vehicle.2"} }

// paperStartTimes returns Table II's attackStartVector, shared by both
// campaigns: 25 start times from 17.0 to 21.8 s in 0.2 s steps, one
// full cycle of the sinusoidal maneuver.
func paperStartTimes() []des.Time {
	starts := make([]des.Time, 0, 25)
	for s := 0; s < 25; s++ {
		starts = append(starts, 17*des.Second+des.Time(s)*200*des.Millisecond)
	}
	return starts
}

func init() {
	RegisterCampaign(CampaignEntry{
		Name: "paper-delay",
		Desc: "Table II delay campaign: PD 0.2..3.0 s x 25 starts x 1..30 s (11250 experiments)",
		Build: func() CampaignSetup {
			setup := CampaignSetup{
				Attack:  "delay",
				Targets: paperTargets(),
				Starts:  paperStartTimes(),
			}
			for v := 1; v <= 15; v++ {
				setup.Values = append(setup.Values, float64(v)*0.2)
			}
			for d := 1; d <= 30; d++ {
				setup.Durations = append(setup.Durations, des.Time(d)*des.Second)
			}
			return setup
		},
	})
	RegisterCampaign(CampaignEntry{
		Name: "paper-dos",
		Desc: "Table II DoS campaign: 25 starts, attack active until the simulation ends",
		Build: func() CampaignSetup {
			return CampaignSetup{
				Attack:    "dos",
				Targets:   paperTargets(),
				Starts:    paperStartTimes(),
				Values:    []float64{60},
				Durations: []des.Time{60 * des.Second},
			}
		},
	})
}

// PaperDelayCampaign returns Table II's delay campaign: PD values 0.2 to
// 3.0 s (0.2 steps), start times 17.0 to 21.8 s (0.2 steps), durations 1
// to 30 s (1 s steps) — 25*15*30 = 11250 experiments targeting Vehicle 2.
// It is a thin lookup of the "paper-delay" registry entry.
func PaperDelayCampaign() CampaignSetup { return MustCampaign("paper-delay") }

// PaperDoSCampaign returns Table II's DoS campaign: 25 start times 17.0
// to 21.8 s, PD pinned to the 60 s horizon, attack active until the end
// of the simulation. It is a thin lookup of the "paper-dos" registry
// entry.
func PaperDoSCampaign() CampaignSetup { return MustCampaign("paper-dos") }
