package core

import (
	"testing"

	"comfase/internal/sim/des"
)

func validSetup() CampaignSetup {
	return CampaignSetup{
		Attack:    "delay",
		Targets:   []string{"vehicle.2"},
		Values:    []float64{1},
		Starts:    []des.Time{17 * des.Second},
		Durations: []des.Time{10 * des.Second},
	}
}

func TestCampaignSetupValidate(t *testing.T) {
	if err := validSetup().Validate(); err != nil {
		t.Fatalf("valid setup rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*CampaignSetup)
	}{
		{name: "bad kind", mutate: func(c *CampaignSetup) { c.Attack = "no-such-attack" }},
		{name: "no attack", mutate: func(c *CampaignSetup) { c.Attack = "" }},
		{name: "no targets", mutate: func(c *CampaignSetup) { c.Targets = nil }},
		{name: "no values", mutate: func(c *CampaignSetup) { c.Values = nil }},
		{name: "no starts", mutate: func(c *CampaignSetup) { c.Starts = nil }},
		{name: "no durations", mutate: func(c *CampaignSetup) { c.Durations = nil }},
		{name: "negative value", mutate: func(c *CampaignSetup) { c.Values = []float64{-1} }},
		{name: "negative start", mutate: func(c *CampaignSetup) { c.Starts = []des.Time{-1} }},
		{name: "zero duration", mutate: func(c *CampaignSetup) { c.Durations = []des.Time{0} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := validSetup()
			tt.mutate(&s)
			if err := s.Validate(); err == nil {
				t.Error("invalid setup accepted")
			}
		})
	}
}

func TestExperimentGridOrder(t *testing.T) {
	s := validSetup()
	s.Starts = []des.Time{des.Second, 2 * des.Second}
	s.Values = []float64{0.2, 0.4}
	s.Durations = []des.Time{des.Second, 2 * des.Second}
	if s.NumExperiments() != 8 {
		t.Fatalf("NumExperiments = %d", s.NumExperiments())
	}
	exps := s.Experiments()
	if len(exps) != 8 {
		t.Fatalf("len = %d", len(exps))
	}
	// Algorithm 1 loop order: start outermost, then value, then duration.
	if exps[0].Start != des.Second || exps[0].Value != 0.2 || exps[0].Duration != des.Second {
		t.Errorf("exp0 = %+v", exps[0])
	}
	if exps[1].Duration != 2*des.Second {
		t.Errorf("exp1 should advance duration first: %+v", exps[1])
	}
	if exps[2].Value != 0.4 {
		t.Errorf("exp2 should advance value second: %+v", exps[2])
	}
	if exps[4].Start != 2*des.Second {
		t.Errorf("exp4 should advance start last: %+v", exps[4])
	}
	for i, e := range exps {
		if e.Nr != i {
			t.Errorf("exp %d has Nr %d", i, e.Nr)
		}
	}
}

func TestExperimentSpecEndClipsAtHorizon(t *testing.T) {
	e := ExperimentSpec{Start: 50 * des.Second, Duration: 30 * des.Second}
	if got := e.End(60 * des.Second); got != 60*des.Second {
		t.Errorf("End = %v, want clipped to horizon", got)
	}
	e = ExperimentSpec{Start: 10 * des.Second, Duration: 5 * des.Second}
	if got := e.End(60 * des.Second); got != 15*des.Second {
		t.Errorf("End = %v, want 15s", got)
	}
}

func TestExperimentSpecString(t *testing.T) {
	e := ExperimentSpec{Nr: 3, Attack: "delay", Targets: []string{"vehicle.2"},
		Value: 1.2, Start: 17 * des.Second, Duration: 5 * des.Second}
	s := e.String()
	for _, want := range []string{"#3", "delay", "1.2", "17s", "vehicle.2"} {
		if !contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
}

func TestBuildModelPerKind(t *testing.T) {
	for _, name := range []string{"delay", "dos", "packet-loss", "replay"} {
		e := ExperimentSpec{Attack: name, Targets: []string{"v2"}, Value: 0.5}
		m, err := e.buildModel(60*des.Second, 1)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if m.Name() != name {
			t.Errorf("model name %q for attack %q", m.Name(), name)
		}
	}
	for _, name := range []string{"", "no-such-attack"} {
		if _, err := (ExperimentSpec{Attack: name, Targets: []string{"v"}}).buildModel(des.Second, 1); err == nil {
			t.Errorf("attack %q built", name)
		}
	}
}

func TestPaperDelayCampaignGrid(t *testing.T) {
	s := PaperDelayCampaign()
	if err := s.Validate(); err != nil {
		t.Fatalf("paper delay campaign invalid: %v", err)
	}
	// Table II: 25 starts * 15 values * 30 durations = 11250.
	if len(s.Starts) != 25 || len(s.Values) != 15 || len(s.Durations) != 30 {
		t.Errorf("grid %dx%dx%d, want 25x15x30", len(s.Starts), len(s.Values), len(s.Durations))
	}
	if s.NumExperiments() != 11250 {
		t.Errorf("NumExperiments = %d, want 11250", s.NumExperiments())
	}
	if s.Starts[0] != 17*des.Second || s.Starts[24] != 21800*des.Millisecond {
		t.Errorf("starts [%v..%v], want [17s..21.8s]", s.Starts[0], s.Starts[24])
	}
	if s.Values[0] != 0.2 || s.Values[14] != 3.0 {
		t.Errorf("values [%v..%v], want [0.2..3.0]", s.Values[0], s.Values[14])
	}
	if s.Durations[0] != des.Second || s.Durations[29] != 30*des.Second {
		t.Errorf("durations [%v..%v], want [1s..30s]", s.Durations[0], s.Durations[29])
	}
	if len(s.Targets) != 1 || s.Targets[0] != "vehicle.2" {
		t.Errorf("targets = %v, want Vehicle 2", s.Targets)
	}
}

func TestPaperDoSCampaignGrid(t *testing.T) {
	s := PaperDoSCampaign()
	if err := s.Validate(); err != nil {
		t.Fatalf("paper DoS campaign invalid: %v", err)
	}
	if s.NumExperiments() != 25 {
		t.Errorf("NumExperiments = %d, want 25", s.NumExperiments())
	}
	if s.Attack != "dos" {
		t.Errorf("attack = %q", s.Attack)
	}
	// DoS: active until the end of the simulation.
	if s.Durations[0] != 60*des.Second {
		t.Errorf("duration = %v, want horizon", s.Durations[0])
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestCampaignFactoryOverridesKind(t *testing.T) {
	var built int
	setup := CampaignSetup{
		Factory: func(spec ExperimentSpec, horizon des.Time, seed uint64) (AttackModel, error) {
			built++
			return NewOmissionFault(spec.Targets...)
		},
		Targets:   []string{"vehicle.2"},
		Values:    []float64{1},
		Starts:    []des.Time{17 * des.Second},
		Durations: []des.Time{des.Second},
	}
	if err := setup.Validate(); err != nil {
		t.Fatalf("factory setup invalid: %v", err)
	}
	specs := setup.Experiments()
	m, err := specs[0].buildModel(60*des.Second, 1)
	if err != nil {
		t.Fatalf("buildModel: %v", err)
	}
	if m.Name() != "omission" || built != 1 {
		t.Errorf("factory not used: %q built=%d", m.Name(), built)
	}
}

func TestCampaignFactoryNilModelRejected(t *testing.T) {
	spec := ExperimentSpec{
		Factory: func(ExperimentSpec, des.Time, uint64) (AttackModel, error) { return nil, nil },
		Targets: []string{"v"},
	}
	if _, err := spec.buildModel(des.Second, 1); err == nil {
		t.Error("nil factory model accepted")
	}
}
