package analysis

import (
	"strings"
	"testing"

	"comfase/internal/classify"
	"comfase/internal/core"
	"comfase/internal/sim/des"
	"comfase/internal/traffic"
)

func exp(start des.Time, value float64, dur des.Time, o classify.Outcome, collider string) core.ExperimentResult {
	r := core.ExperimentResult{
		Spec: core.ExperimentSpec{
			Attack:   "delay",
			Targets:  []string{"vehicle.2"},
			Value:    value,
			Start:    start,
			Duration: dur,
		},
		Outcome:  o,
		Collider: collider,
	}
	if collider != "" {
		r.Collisions = []traffic.Collision{{Collider: collider, Victim: "x"}}
	}
	return r
}

func sampleExperiments() []core.ExperimentResult {
	return []core.ExperimentResult{
		exp(17*des.Second, 0.2, des.Second, classify.Negligible, ""),
		exp(17*des.Second, 2.0, des.Second, classify.Benign, ""),
		exp(17*des.Second, 2.0, 10*des.Second, classify.Severe, "vehicle.2"),
		exp(18*des.Second, 0.2, 10*des.Second, classify.Severe, "vehicle.3"),
		exp(18*des.Second, 2.0, 10*des.Second, classify.Severe, "vehicle.2"),
		exp(18*des.Second, 0.2, des.Second, classify.NonEffective, ""),
	}
}

func TestByDuration(t *testing.T) {
	s := ByDuration(sampleExperiments())
	if len(s.Buckets) != 2 {
		t.Fatalf("buckets = %d, want 2", len(s.Buckets))
	}
	if s.Buckets[0].Key != 1 || s.Buckets[1].Key != 10 {
		t.Errorf("keys = %v,%v, want sorted 1,10", s.Buckets[0].Key, s.Buckets[1].Key)
	}
	oneSec := s.Buckets[0].Counts
	if oneSec.Severe != 0 || oneSec.Benign != 1 || oneSec.Negligible != 1 || oneSec.NonEffective != 1 {
		t.Errorf("1s bucket = %+v", oneSec)
	}
	tenSec := s.Buckets[1].Counts
	if tenSec.Severe != 3 || tenSec.Total() != 3 {
		t.Errorf("10s bucket = %+v", tenSec)
	}
}

func TestByValue(t *testing.T) {
	s := ByValue(sampleExperiments())
	if len(s.Buckets) != 2 {
		t.Fatalf("buckets = %d", len(s.Buckets))
	}
	if s.Buckets[0].Key != 0.2 || s.Buckets[1].Key != 2.0 {
		t.Errorf("keys = %v", s.Buckets)
	}
	if s.Buckets[1].Counts.Severe != 2 {
		t.Errorf("PD=2.0 severe = %d, want 2", s.Buckets[1].Counts.Severe)
	}
}

func TestByStart(t *testing.T) {
	s := ByStart(sampleExperiments())
	if len(s.Buckets) != 2 {
		t.Fatalf("buckets = %d", len(s.Buckets))
	}
	if s.Buckets[0].Key != 17 || s.Buckets[1].Key != 18 {
		t.Errorf("keys = %v", s.Buckets)
	}
	if s.Buckets[0].Counts.Total() != 3 || s.Buckets[1].Counts.Total() != 3 {
		t.Error("start buckets uneven")
	}
}

func TestColliderShares(t *testing.T) {
	shares := ColliderShares(sampleExperiments())
	if len(shares) != 2 {
		t.Fatalf("shares = %v", shares)
	}
	if shares[0].Vehicle != "vehicle.2" || shares[0].Count != 2 {
		t.Errorf("top collider = %+v, want vehicle.2 x2", shares[0])
	}
	if shares[1].Vehicle != "vehicle.3" || shares[1].Count != 1 {
		t.Errorf("second collider = %+v", shares[1])
	}
	wantPct := 100 * 2.0 / 3.0
	if diff := shares[0].Percent - wantPct; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("percent = %v, want %v", shares[0].Percent, wantPct)
	}
}

func TestColliderSharesEmpty(t *testing.T) {
	if got := ColliderShares(nil); len(got) != 0 {
		t.Errorf("shares of nothing = %v", got)
	}
	noCollisions := []core.ExperimentResult{
		exp(17*des.Second, 0.2, des.Second, classify.Negligible, ""),
	}
	if got := ColliderShares(noCollisions); len(got) != 0 {
		t.Errorf("shares without collisions = %v", got)
	}
}

func TestColliderByStart(t *testing.T) {
	m := ColliderByStart(sampleExperiments())
	if m[17*des.Second] == "" && m[18*des.Second] == "" {
		t.Error("no colliders mapped")
	}
}

func TestWriteSeriesTable(t *testing.T) {
	var sb strings.Builder
	if err := WriteSeriesTable(&sb, ByDuration(sampleExperiments())); err != nil {
		t.Fatalf("WriteSeriesTable: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"Fig5-duration", "severe", "1.00", "10.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestWriteColliderTable(t *testing.T) {
	var sb strings.Builder
	if err := WriteColliderTable(&sb, ColliderShares(sampleExperiments())); err != nil {
		t.Fatalf("WriteColliderTable: %v", err)
	}
	if !strings.Contains(sb.String(), "vehicle.2") {
		t.Errorf("collider table missing vehicle.2:\n%s", sb.String())
	}
}

func TestSeriesCSV(t *testing.T) {
	var sb strings.Builder
	if err := SeriesCSV(&sb, ByValue(sampleExperiments())); err != nil {
		t.Fatalf("SeriesCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "x,severe,benign,negligible,noneffective" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 3 {
		t.Errorf("csv lines = %d, want 3", len(lines))
	}
	if lines[2] != "2,2,1,0,0" {
		t.Errorf("PD=2 row = %q", lines[2])
	}
}

func TestSummaryLine(t *testing.T) {
	res := &core.CampaignResult{
		Experiments: sampleExperiments(),
		Golden:      core.GoldenResult{MaxDecel: 1.53},
	}
	for _, e := range res.Experiments {
		res.Counts.Add(e.Outcome)
	}
	line := SummaryLine(res)
	for _, want := range []string{"6 experiments", "severe=3", "1.53"} {
		if !strings.Contains(line, want) {
			t.Errorf("summary %q missing %q", line, want)
		}
	}
}
