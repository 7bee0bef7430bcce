package config

import (
	"strings"
	"testing"
)

const matrixDoc = `{
  "seed": 7,
  "matrix": {
    "scenarios": [
      {"name": "paper-platoon"},
      {"name": "platoon", "label": "platoon-8", "params": {"nrVehicles": 8}}
    ],
    "attacks": [
      {"name": "delay",
       "valuesS": {"values": [0.5, 2]},
       "startTimesS": {"values": [17, 19]},
       "durationsS": {"values": [5]}},
      {"name": "dos",
       "valuesS": {"values": [60]},
       "startTimesS": {"values": [17]},
       "durationsS": {"values": [60]}}
    ]
  }
}`

func TestParseMatrixDocument(t *testing.T) {
	p, err := Parse(strings.NewReader(matrixDoc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if p.Seed != 7 {
		t.Errorf("Seed = %d, want 7", p.Seed)
	}
	cells := p.Grid()
	if len(cells) != 4 {
		t.Fatalf("got %d cells, want 4 (2 scenarios x 2 attacks)", len(cells))
	}
	wantCells := []struct {
		scenario, attack string
		base, n          int
	}{
		{"paper-platoon", "delay", 0, 4},
		{"paper-platoon", "dos", 4, 1},
		{"platoon-8", "delay", 5, 4},
		{"platoon-8", "dos", 9, 1},
	}
	for i, want := range wantCells {
		cell := cells[i]
		if cell.Scenario != want.scenario || cell.Attack != want.attack {
			t.Errorf("cell %d = %s/%s, want %s/%s", i, cell.Scenario, cell.Attack, want.scenario, want.attack)
		}
		if cell.Setup.Base != want.base || cell.Setup.NumExperiments() != want.n {
			t.Errorf("cell %d grid = base %d n %d, want base %d n %d",
				i, cell.Setup.Base, cell.Setup.NumExperiments(), want.base, want.n)
		}
		if cell.Setup.Scenario != cell.Scenario {
			t.Errorf("cell %d setup label %q != cell label %q", i, cell.Setup.Scenario, cell.Scenario)
		}
		if cell.Engine.Seed != 7 {
			t.Errorf("cell %d engine seed = %d, want 7", i, cell.Engine.Seed)
		}
		if err := cell.Setup.Validate(); err != nil {
			t.Errorf("cell %d setup invalid: %v", i, err)
		}
	}
	if cells[2].Engine.Scenario.NrVehicles != 8 {
		t.Errorf("platoon-8 engine has %d vehicles, want 8", cells[2].Engine.Scenario.NrVehicles)
	}
	// Matrix documents leave the single-campaign fields zero.
	if p.Campaign.NumExperiments() != 0 {
		t.Error("matrix document also produced a single campaign")
	}
}

func TestMatrixExclusiveWithCampaign(t *testing.T) {
	doc := `{
	  "campaign": {"attack": "delay",
	    "valuesS": {"values": [1]}, "startTimesS": {"values": [17]}, "durationsS": {"values": [5]}},
	  "matrix": {"scenarios": [{"name": "paper-platoon"}], "attacks": [{"name": "delay",
	    "valuesS": {"values": [1]}, "startTimesS": {"values": [17]}, "durationsS": {"values": [5]}}]}
	}`
	if _, err := Parse(strings.NewReader(doc)); err == nil ||
		!strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("Parse(campaign+matrix) = %v, want mutual-exclusion error", err)
	}
}

func TestMatrixRejectsTopLevelScenario(t *testing.T) {
	doc := `{
	  "scenario": {"nrVehicles": 6},
	  "matrix": {"scenarios": [{"name": "paper-platoon"}], "attacks": [{"name": "delay",
	    "valuesS": {"values": [1]}, "startTimesS": {"values": [17]}, "durationsS": {"values": [5]}}]}
	}`
	if _, err := Parse(strings.NewReader(doc)); err == nil ||
		!strings.Contains(err.Error(), "scenario/controller") {
		t.Errorf("Parse(scenario+matrix) = %v, want section-conflict error", err)
	}
}

func TestMatrixUnknownAttackSuggestion(t *testing.T) {
	doc := `{"matrix": {"scenarios": [{"name": "paper-platoon"}], "attacks": [{"name": "dely",
	  "valuesS": {"values": [1]}, "startTimesS": {"values": [17]}, "durationsS": {"values": [5]}}]}}`
	if _, err := Parse(strings.NewReader(doc)); err == nil ||
		!strings.Contains(err.Error(), `did you mean "delay"`) {
		t.Errorf("Parse(dely) = %v, want suggestion", err)
	}
}

func TestMatrixScenarioParamBounds(t *testing.T) {
	doc := `{"matrix": {"scenarios": [{"name": "platoon", "params": {"nrVehicles": 99}}],
	  "attacks": [{"name": "delay",
	  "valuesS": {"values": [1]}, "startTimesS": {"values": [17]}, "durationsS": {"values": [5]}}]}}`
	if _, err := Parse(strings.NewReader(doc)); err == nil ||
		!strings.Contains(err.Error(), "nrVehicles") {
		t.Errorf("Parse(nrVehicles=99) = %v, want bounds error", err)
	}
}

func TestMatrixCommOverrideAppliesToAllCells(t *testing.T) {
	doc := `{
	  "comm": {"beaconIntervalS": 0.2},
	  "matrix": {"scenarios": [{"name": "paper-platoon"}, {"name": "platoon", "label": "p8", "params": {"nrVehicles": 8}}],
	    "attacks": [{"name": "delay",
	    "valuesS": {"values": [1]}, "startTimesS": {"values": [17]}, "durationsS": {"values": [5]}}]}
	}`
	p, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	for i, cell := range p.Grid() {
		if got := cell.Engine.Comm.BeaconInterval.Seconds(); got != 0.2 {
			t.Errorf("cell %d beacon interval = %v s, want 0.2", i, got)
		}
	}
}
