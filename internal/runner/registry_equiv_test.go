package runner

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"comfase/internal/analysis"
	"comfase/internal/core"
	"comfase/internal/scenario"
	"comfase/internal/sim/des"
	"comfase/internal/sim/rng"
)

// registryGrid is a small grid inside the 5 s chaos horizon. value/dur
// vectors are chosen per family so every point is meaningful (e.g.
// packet-loss probabilities stay in [0,1]).
func registryGrid(values []float64) core.CampaignSetup {
	return core.CampaignSetup{
		Targets:   []string{"vehicle.2"},
		Values:    values,
		Starts:    []des.Time{des.Second, 2 * des.Second, 3 * des.Second},
		Durations: []des.Time{500 * des.Millisecond, 1500 * des.Millisecond},
	}
}

// legacyFactory replicates the pre-registry buildModel switch for the
// families the equivalence test sweeps — the reference the registry
// path must match bit-for-bit.
func legacyFactory(name string) core.ModelFactory {
	return func(spec core.ExperimentSpec, horizon des.Time, seed uint64) (core.AttackModel, error) {
		switch name {
		case "delay":
			return core.NewDelayAttack(des.FromSeconds(spec.Value), spec.Targets...)
		case "dos":
			return core.NewDoSAttack(horizon, spec.Targets...)
		case "packet-loss":
			stream := rng.New(seed, fmt.Sprintf("attack.loss.%d", spec.Nr))
			return core.NewPacketLossAttack(spec.Value, stream, spec.Targets...)
		case "replay":
			return core.NewReplayAttack(des.FromSeconds(spec.Value), spec.Targets...)
		}
		return nil, fmt.Errorf("legacyFactory: unhandled attack %q", name)
	}
}

// TestRegistryCampaignEquivalence is the registry's self-test: the
// registry attack path (by family name) must reproduce the legacy
// hardcoded-switch behaviour bit-for-bit. For each family it runs the
// same grid two ways — registry name, and a factory replicating the old
// switch — and requires byte-identical result CSVs.
func TestRegistryCampaignEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs campaigns in -short mode")
	}
	families := []struct {
		name   string
		values []float64
	}{
		{"delay", []float64{0.3, 1.0}},
		{"dos", []float64{5}},
		{"packet-loss", []float64{0.5, 0.9}},
		{"replay", []float64{0.5, 1.5}},
	}
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			t.Parallel()
			run := func(mutate func(*core.CampaignSetup)) []byte {
				setup := registryGrid(fam.values)
				mutate(&setup)
				var buf bytes.Buffer
				r, err := New(chaosEngine(t, 0), Options{Workers: 2}, NewCSVSink(&buf))
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				if _, err := r.Run(context.Background(), setup); err != nil {
					t.Fatalf("Run: %v", err)
				}
				return buf.Bytes()
			}
			nameCSV := run(func(s *core.CampaignSetup) { s.Attack = fam.name })
			factoryCSV := run(func(s *core.CampaignSetup) {
				s.Factory = legacyFactory(fam.name)
				s.Attack = fam.name // label parity with the registry path
			})
			if !bytes.Equal(nameCSV, factoryCSV) {
				t.Errorf("registry path differs from legacy factory:\nname:\n%s\nfactory:\n%s", nameCSV, factoryCSV)
			}
		})
	}
}

// chaosAttackOnce registers the test-only "chaos-delay" family exactly
// once per process: a delay attack whose Build consults the chaos
// schedule by expNr, panicking or returning hang/NaN models like the
// chaos factory does.
var chaosAttackOnce sync.Once

func registerChaosAttack() {
	chaosAttackOnce.Do(func() {
		core.RegisterAttack(core.AttackEntry{
			Name: "chaos-delay",
			Desc: "test-only delay attack with a deterministic fault schedule",
			Build: func(ctx core.AttackContext) (core.AttackModel, error) {
				chaosAttackMu.Lock()
				chaosAttackAttempts[ctx.Spec.Nr]++
				n := chaosAttackAttempts[ctx.Spec.Nr]
				chaosAttackMu.Unlock()
				class, transient := chaosClass(ctx.Spec.Nr)
				if transient && n == 1 {
					panic(fmt.Sprintf("chaos transient #%d", ctx.Spec.Nr))
				}
				switch class {
				case "panic":
					panic(fmt.Sprintf("chaos persistent #%d", ctx.Spec.Nr))
				case "event-budget":
					return hangModel{}, nil
				case "invariant":
					return nanModel{}, nil
				}
				return core.NewDelayAttack(des.FromSeconds(ctx.Spec.Value), ctx.Spec.Targets...)
			},
		})
	})
}

// chaosAttackState backs the registered chaos-delay family. The
// registry is process-global, so the schedule state must outlive any
// single test run; tests reset the map under the lock.
var (
	chaosAttackMu       sync.Mutex
	chaosAttackAttempts = map[int]int{}
)

// TestRegistryChaosEquivalence runs the chaos fault schedule through a
// registered attack family and through the legacy chaos factory, and
// requires identical quarantine classes and byte-identical CSVs for the
// healthy experiments — the registry path must not weaken the
// failure-containment layer.
func TestRegistryChaosEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 200-experiment chaos campaign in -short mode")
	}
	registerChaosAttack()

	run := func(mutate func(*core.CampaignSetup)) ([]byte, map[int]string) {
		setup := chaosGrid()
		mutate(&setup)
		var buf bytes.Buffer
		r, err := New(chaosEngine(t, 200_000), Options{
			Workers:     4,
			Retries:     1,
			MaxFailures: -1,
		}, NewCSVSink(&buf))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		res, err := r.Run(context.Background(), setup)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		classes := make(map[int]string)
		for _, f := range res.Failures {
			classes[f.Nr] = f.Class
		}
		return buf.Bytes(), classes
	}

	chaosAttackMu.Lock()
	clear(chaosAttackAttempts)
	chaosAttackMu.Unlock()
	regCSV, regClasses := run(func(s *core.CampaignSetup) {
		s.Attack = "chaos-delay"
	})

	var mu sync.Mutex
	attempts := map[int]int{}
	facCSV, facClasses := run(func(s *core.CampaignSetup) {
		s.Attack = "chaos-delay" // label parity; Factory wins in buildModel
		s.Factory = chaosFactory(&mu, attempts)
	})

	if !bytes.Equal(regCSV, facCSV) {
		t.Errorf("healthy-row CSVs differ:\nregistry:\n%s\nfactory:\n%s", regCSV, facCSV)
	}
	if len(regClasses) == 0 {
		t.Fatal("chaos schedule quarantined nothing; the test is vacuous")
	}
	if fmt.Sprint(sortedClasses(regClasses)) != fmt.Sprint(sortedClasses(facClasses)) {
		t.Errorf("quarantine classes differ:\nregistry: %v\nfactory:  %v",
			sortedClasses(regClasses), sortedClasses(facClasses))
	}
}

func sortedClasses(m map[int]string) []string {
	nrs := make([]int, 0, len(m))
	for nr := range m {
		nrs = append(nrs, nr)
	}
	sort.Ints(nrs)
	out := make([]string, 0, len(nrs))
	for _, nr := range nrs {
		out = append(out, fmt.Sprintf("%d:%s", nr, m[nr]))
	}
	return out
}

// TestRunMatrixDeterminism is the matrix analogue of
// TestRunnerDeterminism: a sequential matrix run, a parallel one, and a
// sharded-then-merged pair must produce byte-identical matrix CSVs, and
// the per-cell tallies must agree with the flat experiment stream.
func TestRunMatrixDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs matrix campaigns in -short mode")
	}
	cells := testMatrixCells(t)

	runMatrix := func(opts Options) (*GridResult, []byte) {
		var buf bytes.Buffer
		res, err := mustGrid(t, cells).Run(context.Background(), opts, NewCSVSink(&buf))
		if err != nil {
			t.Fatalf("Grid.Run(%+v): %v", opts, err)
		}
		return res, buf.Bytes()
	}

	seq, seqCSV := runMatrix(Options{Workers: 1})
	// Labeled (matrix) rows select the schema with the scenario column.
	header := strings.Join(analysis.MatrixCSVHeader(), ",") + "\n"
	if !bytes.HasPrefix(seqCSV, []byte(header)) {
		t.Errorf("matrix CSV does not start with the matrix header %q:\n%s", header, seqCSV)
	}
	_, parCSV := runMatrix(Options{Workers: 4})
	if !bytes.Equal(seqCSV, parCSV) {
		t.Errorf("parallel matrix CSV differs from sequential:\nseq:\n%s\npar:\n%s", seqCSV, parCSV)
	}

	var shardCSVs [][]byte
	for i := 1; i <= 2; i++ {
		_, csvBytes := runMatrix(Options{Workers: 2, Shard: Shard{Index: i, Count: 2}})
		shardCSVs = append(shardCSVs, csvBytes)
	}
	merged := mergeCSVBytes(t, shardCSVs...)
	if !bytes.Equal(seqCSV, merged) {
		t.Errorf("merged matrix shards differ from sequential:\nseq:\n%s\nmerged:\n%s", seqCSV, merged)
	}

	// Per-cell tallies must re-derive from the flat stream, and the
	// overall tally must cover it.
	flat := seq.Experiments()
	if got := len(seq.Cells); got != len(cells) {
		t.Fatalf("got %d cell results, want %d", got, len(cells))
	}
	perCell := analysis.CellCounts(flat)
	for i, c := range seq.Cells {
		label := c.Setup.Scenario + "/" + c.Setup.Attack
		if got := perCell.Get(label); got != c.Counts {
			t.Errorf("cell %d (%s) tally %+v, flat stream says %+v", i, label, c.Counts, got)
		}
	}
	if seq.Counts.Total() != len(flat) {
		t.Errorf("overall tally covers %d experiments, want %d", seq.Counts.Total(), len(flat))
	}

	// The flat stream must be in global grid order with contiguous Nrs.
	for i, e := range flat {
		if e.Spec.Nr != i {
			t.Fatalf("experiment %d has Nr %d; global grid order broken", i, e.Spec.Nr)
		}
	}
}

// testMatrixCells is a 2-scenario x 2-attack matrix on the 5 s chaos
// horizon. Both cells share the paper scenario engine config but carry
// distinct labels, so the engine-reuse path and the label plumbing are
// both exercised.
func testMatrixCells(t *testing.T) []MatrixCell {
	t.Helper()
	eng := chaosEngineConfig(0)
	grid := func(base int, scenarioLabel, attack string, values []float64) core.CampaignSetup {
		s := registryGrid(values)
		s.Attack = attack
		s.Scenario = scenarioLabel
		s.Base = base
		return s
	}
	var cells []MatrixCell
	base := 0
	for _, sc := range []string{"cell-a", "cell-b"} {
		for _, at := range []struct {
			name   string
			values []float64
		}{
			{"delay", []float64{0.3, 1.0}},
			{"packet-loss", []float64{0.5}},
		} {
			setup := grid(base, sc, at.name, at.values)
			cells = append(cells, MatrixCell{Scenario: sc, Attack: at.name, Engine: eng, Setup: setup})
			base += setup.NumExperiments()
		}
	}
	return cells
}

// mustGrid validates the cells into a Grid.
func mustGrid(t *testing.T, cells []MatrixCell) *Grid {
	t.Helper()
	g, err := NewGrid(cells)
	if err != nil {
		t.Fatalf("NewGrid: %v", err)
	}
	return g
}

// chaosEngineConfig is chaosEngine's config without the construction —
// a Grid builds engines itself.
func chaosEngineConfig(budget uint64) core.EngineConfig {
	ts := scenario.PaperScenario()
	ts.TotalSimTime = 5 * des.Second
	return core.EngineConfig{
		Scenario:          ts,
		Comm:              scenario.PaperCommModel(),
		Seed:              1,
		CancelCheckEvents: 256,
		Invariants:        true,
		EventBudget:       budget,
	}
}

func mergeCSVBytes(t *testing.T, csvs ...[]byte) []byte {
	t.Helper()
	dir := t.TempDir()
	var paths []string
	for i, b := range csvs {
		path := fmt.Sprintf("%s/shard%d.csv", dir, i)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatalf("write shard: %v", err)
		}
		paths = append(paths, path)
	}
	var merged bytes.Buffer
	if err := MergeResultFiles(&merged, paths...); err != nil {
		t.Fatalf("MergeResultFiles: %v", err)
	}
	return merged.Bytes()
}

// TestRunMatrixBaseValidation verifies the contiguity guard: a gap in
// the global expNr space is a configuration bug and must be rejected
// before any cell runs.
func TestRunMatrixBaseValidation(t *testing.T) {
	cells := testMatrixCells(t)
	cells[1].Setup.Base += 5
	_, err := NewGrid(cells)
	if err == nil || !strings.Contains(err.Error(), "base") {
		t.Fatalf("NewGrid accepted a non-contiguous base: %v", err)
	}
}

// TestRunMatrixResume verifies that resuming a partially completed
// matrix run skips the recorded rows and reproduces the full CSV.
func TestRunMatrixResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs matrix campaigns in -short mode")
	}
	cells := testMatrixCells(t)
	var full bytes.Buffer
	if _, err := mustGrid(t, cells).Run(context.Background(), Options{Workers: 1}, NewCSVSink(&full)); err != nil {
		t.Fatalf("Grid.Run: %v", err)
	}

	// Cut the file mid-grid (header + first 7 rows) and resume.
	lines := bytes.SplitAfter(full.Bytes(), []byte("\n"))
	prefix := bytes.Join(lines[:8], nil)
	done, err := ReadResults(bytes.NewReader(prefix))
	if err != nil {
		t.Fatalf("ReadResults: %v", err)
	}
	if len(done) != 7 {
		t.Fatalf("prefix parsed to %d rows, want 7", len(done))
	}
	var tail bytes.Buffer
	if _, err := mustGrid(t, cells).Run(context.Background(), Options{Workers: 1, Resume: done},
		NewCSVAppendSink(&tail)); err != nil {
		t.Fatalf("resumed Grid.Run: %v", err)
	}
	combined := append(append([]byte(nil), prefix...), tail.Bytes()...)
	if !bytes.Equal(combined, full.Bytes()) {
		t.Errorf("resumed matrix CSV differs:\nfull:\n%s\ncombined:\n%s", full.Bytes(), combined)
	}
}
