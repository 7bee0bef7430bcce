package figures

import (
	"bytes"
	"strings"
	"testing"

	"comfase/internal/analysis"
	"comfase/internal/core"
	"comfase/internal/scenario"
)

func TestDelaySetupFullIsTableII(t *testing.T) {
	full := DelaySetup(false)
	if full.NumExperiments() != 11250 {
		t.Errorf("full grid = %d, want 11250", full.NumExperiments())
	}
}

func TestDelaySetupQuickIsRepresentative(t *testing.T) {
	quick := DelaySetup(true)
	if err := quick.Validate(); err != nil {
		t.Fatalf("quick setup invalid: %v", err)
	}
	if quick.NumExperiments() != 150 {
		t.Errorf("quick grid = %d, want 150", quick.NumExperiments())
	}
	if quick.Attack != "delay" || quick.Targets[0] != "vehicle.2" {
		t.Errorf("quick setup %+v not a delay attack on vehicle 2", quick)
	}
}

// TestRunQuickEndToEnd is the integration test of the whole reproduction
// pipeline: 150 delay + 25 DoS experiments, all figures derived, report
// rendered. It asserts the §IV-C shapes the quick grid can carry.
func TestRunQuickEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("quick reproduction takes ~3 s")
	}
	var lastDone, lastTotal int
	res, err := Run(Options{
		Seed:  1,
		Quick: true,
		Progress: func(done, total int) {
			lastDone, lastTotal = done, total
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if lastDone != lastTotal || lastDone == 0 {
		t.Errorf("progress ended at %d/%d", lastDone, lastTotal)
	}

	// Golden run: Fig. 4 anchor.
	if res.Golden.MaxDecel < 1.4 || res.Golden.MaxDecel > 1.7 {
		t.Errorf("golden max decel = %v, want ~1.53", res.Golden.MaxDecel)
	}
	if res.GoldenLog.Len() < 5900 {
		t.Errorf("golden log %d samples", res.GoldenLog.Len())
	}

	// Delay campaign: no non-effective outcomes; severe present.
	if res.Delay.Counts.NonEffective != 0 {
		t.Errorf("non-effective = %d, want 0", res.Delay.Counts.NonEffective)
	}
	if res.Delay.Counts.Severe == 0 {
		t.Error("no severe outcomes in delay campaign")
	}
	if got := res.Delay.Counts.Total(); got != 150 {
		t.Errorf("delay total = %d", got)
	}

	// Fig. 6 shape: the lowest PD bucket has no severe cases, the
	// highest is dominated by them.
	if len(res.Fig6.Buckets) != 5 {
		t.Fatalf("Fig6 buckets = %d", len(res.Fig6.Buckets))
	}
	lo := res.Fig6.Buckets[0]
	hi := res.Fig6.Buckets[len(res.Fig6.Buckets)-1]
	if lo.Key != 0.2 || hi.Key != 3.0 {
		t.Errorf("Fig6 keys [%v..%v]", lo.Key, hi.Key)
	}
	if lo.Counts.Severe >= hi.Counts.Severe {
		t.Errorf("Fig6 not rising: severe %d at PD=0.2 vs %d at PD=3.0",
			lo.Counts.Severe, hi.Counts.Severe)
	}

	// Fig. 7 shape: the 19.8 s start (zero-acceleration phase) has
	// fewer severe cases than the 17.0 s start.
	var at17, at198 int
	for _, b := range res.Fig7.Buckets {
		switch b.Key {
		case 17.0:
			at17 = b.Counts.Severe
		case 19.8:
			at198 = b.Counts.Severe
		}
	}
	if at198 >= at17 {
		t.Errorf("Fig7 benign window missing: severe %d at 19.8s vs %d at 17.0s", at198, at17)
	}

	// DoS campaign: strong majority severe, collider order V2 >= V3 >= V4.
	if res.DoS.Counts.Severe < 20 {
		t.Errorf("DoS severe = %d/25", res.DoS.Counts.Severe)
	}
	if len(res.DoSColliders) < 2 {
		t.Fatalf("DoS colliders = %v", res.DoSColliders)
	}
	if res.DoSColliders[0].Vehicle != "vehicle.2" {
		t.Errorf("top DoS collider = %v, want vehicle.2", res.DoSColliders[0])
	}

	// Delay colliders: the attacked vehicle dominates (paper: 65.4%).
	if len(res.DelayColliders) == 0 || res.DelayColliders[0].Vehicle != "vehicle.2" {
		t.Errorf("delay colliders = %v, want vehicle.2 first", res.DelayColliders)
	}

	// The report renders all sections.
	var sb strings.Builder
	if err := res.WriteReport(&sb); err != nil {
		t.Fatalf("WriteReport: %v", err)
	}
	report := sb.String()
	for _, want := range []string{
		"Golden run", "Delay campaign", "Fig5-duration", "Fig6-pd-value",
		"Fig7-start-time", "DoS campaign", "collider by start time",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q", want)
		}
	}

	// The campaign runner (parallel, checkpoint trie) must export exactly
	// what a fresh sequential RunExperiment loop over the same grids does.
	eng, err := core.NewEngine(core.EngineConfig{
		Scenario: scenario.PaperScenario(),
		Comm:     scenario.PaperCommModel(),
		Seed:     1,
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	for _, c := range []struct {
		name  string
		setup core.CampaignSetup
		got   *core.CampaignResult
	}{
		{"delay", DelaySetup(true), res.Delay},
		{"dos", core.PaperDoSCampaign(), res.DoS},
	} {
		var fresh []core.ExperimentResult
		for _, spec := range c.setup.Experiments() {
			r, err := eng.RunExperiment(spec)
			if err != nil {
				t.Fatalf("%s experiment %v: %v", c.name, spec, err)
			}
			fresh = append(fresh, r)
		}
		var want, got bytes.Buffer
		if err := analysis.ExperimentsCSV(&want, fresh); err != nil {
			t.Fatal(err)
		}
		if err := analysis.ExperimentsCSV(&got, c.got.Experiments); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("%s campaign CSV differs from the sequential RunExperiment loop", c.name)
		}
	}
}
