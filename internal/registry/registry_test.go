package registry

import (
	"reflect"
	"strings"
	"testing"

	"comfase/internal/core"
	"comfase/internal/registry/param"
	"comfase/internal/sim/des"
)

func TestLookupScenarioSuggestions(t *testing.T) {
	if _, err := LookupScenario("platon"); err == nil ||
		!strings.Contains(err.Error(), `did you mean "platoon"`) {
		t.Errorf("LookupScenario(platon) = %v, want platoon suggestion", err)
	}
	if _, err := LookupScenario("paper-platoon"); err != nil {
		t.Errorf("LookupScenario(paper-platoon): %v", err)
	}
}

func TestScenarioNamesSorted(t *testing.T) {
	names := ScenarioNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("ScenarioNames not strictly sorted: %v", names)
		}
	}
	for _, want := range []string{"paper-platoon", "platoon", "teleop"} {
		found := false
		for _, n := range names {
			found = found || n == want
		}
		if !found {
			t.Errorf("scenario %q not registered (have %v)", want, names)
		}
	}
}

func TestBuildScenarioBounds(t *testing.T) {
	cases := []struct {
		name   string
		params param.Params
		want   string
	}{
		{"platoon", param.Params{"nrVehicles": 1}, "nrVehicles"},
		{"platoon", param.Params{"nrVehicles": 33}, "nrVehicles"},
		{"platoon", param.Params{"totalSimTimeS": 0.5}, "totalSimTimeS"},
		{"platoon", param.Params{"maneuver": "brakin"}, `did you mean "braking"`},
		{"platoon", param.Params{"nrVehicle": 4}, `did you mean "nrVehicles"`},
		{"platoon", param.Params{"controllers": "cac"}, `did you mean "cacc"`},
		{"teleop", param.Params{"watchdogS": -1}, "watchdogS"},
	}
	for _, c := range cases {
		if _, err := BuildScenario(c.name, c.params); err == nil ||
			!strings.Contains(err.Error(), c.want) {
			t.Errorf("BuildScenario(%s, %v) = %v, want error mentioning %q",
				c.name, c.params, err, c.want)
		}
	}
}

func TestBuildScenarioDefaults(t *testing.T) {
	def, err := BuildScenario("platoon", nil)
	if err != nil {
		t.Fatalf("BuildScenario(platoon, nil): %v", err)
	}
	if def.Traffic.NrVehicles != 4 {
		t.Errorf("default NrVehicles = %d, want 4", def.Traffic.NrVehicles)
	}
	if def.Traffic.TotalSimTime != 60*des.Second {
		t.Errorf("default TotalSimTime = %v, want 60s", def.Traffic.TotalSimTime)
	}
	if def.Controllers == nil || def.Controllers(1) == nil {
		t.Fatal("default controller factory is nil")
	}
	if got := def.Controllers(1).Name(); got != "CACC" {
		t.Errorf("default follower controller = %q, want CACC", got)
	}
}

func TestControllerMixRoundRobin(t *testing.T) {
	factory, err := ControllerMix("cacc, acc ,ploeg")
	if err != nil {
		t.Fatalf("ControllerMix: %v", err)
	}
	want := []string{"CACC", "ACC", "PLOEG", "CACC", "ACC"}
	for i, name := range want {
		if got := factory(i + 1).Name(); got != name {
			t.Errorf("follower %d controller = %q, want %q", i+1, got, name)
		}
	}
	if _, err := ControllerMix("cacc,plog"); err == nil ||
		!strings.Contains(err.Error(), `did you mean "ploeg"`) {
		t.Errorf("ControllerMix(plog) = %v, want ploeg suggestion", err)
	}
}

func TestDuplicateScenarioPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering paper-platoon did not panic")
		}
	}()
	RegisterScenario(ScenarioEntry{
		Name:  "paper-platoon",
		Build: func(param.Params) (ScenarioDef, error) { return ScenarioDef{}, nil },
	})
}

// testMatrix is a 2x2 matrix reused by the expansion tests.
func testMatrix() Matrix {
	return Matrix{
		Scenarios: []MatrixScenario{
			{Name: "paper-platoon"},
			{Name: "platoon", Label: "platoon-8", Params: param.Params{"nrVehicles": 8}},
		},
		Attacks: []MatrixAttack{
			{Name: "delay", Values: []float64{0.5, 2},
				Starts:    []des.Time{17 * des.Second, 19 * des.Second},
				Durations: []des.Time{5 * des.Second}},
			{Name: "dos", Values: []float64{60},
				Starts:    []des.Time{17 * des.Second},
				Durations: []des.Time{60 * des.Second}},
		},
	}
}

// TestMatrixExpandDeterminism: the same matrix must expand to the same
// grid — same cell order, labels, bases and experiment vectors — every
// time; the shard/resume/merge invariants all sit on this.
func TestMatrixExpandDeterminism(t *testing.T) {
	a, err := testMatrix().Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	b, err := testMatrix().Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if len(a) != len(b) || len(a) != 4 {
		t.Fatalf("expansions have %d and %d cells, want 4", len(a), len(b))
	}
	for i := range a {
		if a[i].Index != i || b[i].Index != i {
			t.Errorf("cell %d carries indices %d/%d", i, a[i].Index, b[i].Index)
		}
		if a[i].Scenario != b[i].Scenario || a[i].Attack != b[i].Attack {
			t.Errorf("cell %d identity differs: %s/%s vs %s/%s",
				i, a[i].Scenario, a[i].Attack, b[i].Scenario, b[i].Attack)
		}
		if a[i].Setup.Base != b[i].Setup.Base {
			t.Errorf("cell %d base differs: %d vs %d", i, a[i].Setup.Base, b[i].Setup.Base)
		}
		sa, sb := a[i].Setup.Experiments(), b[i].Setup.Experiments()
		if len(sa) != len(sb) {
			t.Fatalf("cell %d grid sizes differ: %d vs %d", i, len(sa), len(sb))
		}
		for j := range sa {
			sa[j].Factory, sb[j].Factory = nil, nil
			if !reflect.DeepEqual(sa[j], sb[j]) {
				t.Errorf("cell %d experiment %d differs: %+v vs %+v", i, j, sa[j], sb[j])
			}
		}
	}
	// Scenario-major, attack-minor order with contiguous bases.
	wantOrder := []string{
		"paper-platoon/delay", "paper-platoon/dos",
		"platoon-8/delay", "platoon-8/dos",
	}
	base := 0
	for i, cell := range a {
		if got := cell.Scenario + "/" + cell.Attack; got != wantOrder[i] {
			t.Errorf("cell %d = %s, want %s", i, got, wantOrder[i])
		}
		if cell.Setup.Base != base {
			t.Errorf("cell %d base = %d, want %d", i, cell.Setup.Base, base)
		}
		base += cell.Setup.NumExperiments()
	}
	if n, err := testMatrix().NumExperiments(); err != nil || n != base {
		t.Errorf("NumExperiments = %d, %v, want %d", n, err, base)
	}
}

func TestMatrixRejectsDuplicateLabels(t *testing.T) {
	m := testMatrix()
	m.Scenarios[1] = MatrixScenario{Name: "paper-platoon"}
	if _, err := m.Expand(); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Errorf("Expand with duplicate labels = %v, want duplicate-label error", err)
	}
}

func TestMatrixUnknownNames(t *testing.T) {
	m := testMatrix()
	m.Scenarios[0].Name = "paper-platon"
	if _, err := m.Expand(); err == nil ||
		!strings.Contains(err.Error(), `did you mean "paper-platoon"`) {
		t.Errorf("Expand(paper-platon) = %v, want suggestion", err)
	}
	m = testMatrix()
	m.Attacks[0].Name = "dely"
	if _, err := m.Expand(); err == nil ||
		!strings.Contains(err.Error(), `did you mean "delay"`) {
		t.Errorf("Expand(dely) = %v, want suggestion", err)
	}
}

// TestPaperCampaignPresets pins the registry-hosted paper campaigns to
// the Table II grid shapes the seed hardcoded.
func TestPaperCampaignPresets(t *testing.T) {
	delay := core.PaperDelayCampaign()
	if got := delay.NumExperiments(); got != 11250 {
		t.Errorf("paper-delay grid = %d experiments, want 11250", got)
	}
	if delay.Attack != "delay" {
		t.Errorf("paper-delay identifies as %q", delay.Attack)
	}
	dos := core.PaperDoSCampaign()
	if got := dos.NumExperiments(); got != 25 {
		t.Errorf("paper-dos grid = %d experiments, want 25", got)
	}
	names := CampaignNames()
	for _, want := range []string{"paper-delay", "paper-dos"} {
		found := false
		for _, n := range names {
			found = found || n == want
		}
		if !found {
			t.Errorf("campaign %q not registered (have %v)", want, names)
		}
	}
	if _, err := LookupCampaign("paper-delai"); err == nil ||
		!strings.Contains(err.Error(), `did you mean "paper-delay"`) {
		t.Errorf("LookupCampaign(paper-delai) = %v, want suggestion", err)
	}
}
