package runner

import (
	"context"
	"errors"
	"fmt"

	"comfase/internal/classify"
	"comfase/internal/core"
)

// MatrixCell is one (scenario, attack) cell of a campaign grid: the
// engine configuration of the scenario plus the cell's campaign grid.
// A matrix config expands into one cell per (scenario, attack) pair
// (registry.Matrix.Expand, via the config layer); a single-campaign
// config is one cell with an empty scenario label. The runner takes the
// flattened form so it does not depend on the registry package.
type MatrixCell struct {
	// Scenario is the cell's scenario label (matches Setup.Scenario);
	// empty outside matrix campaigns.
	Scenario string
	// Attack is the cell's attack family name.
	Attack string
	// Engine configures the scenario cell's engine. Cells sharing a
	// scenario label share one engine, so they must share this config.
	Engine core.EngineConfig
	// Setup is the cell's campaign grid; Setup.Base carries the global
	// expNr offset, so shard/resume/merge work on the flattened grid.
	Setup core.CampaignSetup
}

// GridResult is the outcome of one grid run.
type GridResult struct {
	// Cells are the per-cell campaign results in grid order; each
	// Setup carries the cell's scenario label and attack.
	Cells []*core.CampaignResult
	// Counts is the overall outcome tally.
	Counts classify.Counts
	// FailureCounts tallies the failure classes of the quarantined
	// experiments.
	FailureCounts core.FailureCounts
}

// Experiments returns every classified result in global grid order.
func (r *GridResult) Experiments() []core.ExperimentResult {
	var out []core.ExperimentResult
	for _, c := range r.Cells {
		out = append(out, c.Experiments...)
	}
	return out
}

// Grid is a validated campaign grid: one or more cells whose expNr
// ranges are contiguous in cell order. It is the one execution path for
// every config — a single campaign is a one-cell grid — and it keeps
// one engine per scenario label for its lifetime, so each engine is
// built and its golden run simulated once no matter how many times Run
// is called (a fabric worker runs every lease through one Grid). A Grid
// is not safe for concurrent use.
type Grid struct {
	cells   []MatrixCell
	base    int
	size    int
	matrix  bool
	engines map[string]*core.Engine // by scenario label
}

// NewGrid validates the cells: each setup must be valid and the global
// expNr space contiguous in cell order — sharding and merge correctness
// depend on it.
func NewGrid(cells []MatrixCell) (*Grid, error) {
	if len(cells) == 0 {
		return nil, errors.New("runner: grid has no cells")
	}
	g := &Grid{cells: cells, base: cells[0].Setup.Base, engines: make(map[string]*core.Engine)}
	next := g.base
	for i, cell := range cells {
		if cell.Setup.Base != next {
			return nil, fmt.Errorf("runner: matrix cell %d (%s/%s) has base %d, want %d",
				i, cell.Scenario, cell.Attack, cell.Setup.Base, next)
		}
		if err := cell.Setup.Validate(); err != nil {
			return nil, g.cellErr(i, err)
		}
		next += cell.Setup.NumExperiments()
		g.matrix = g.matrix || cell.Scenario != ""
	}
	g.size = next - g.base
	return g, nil
}

// Base is the first expNr of the grid.
func (g *Grid) Base() int { return g.base }

// Size is the number of grid points.
func (g *Grid) Size() int { return g.size }

// Matrix reports whether the cells carry scenario labels, which selects
// the analysis.MatrixCSVHeader schema (scenario column) for the grid's
// result files over the single-campaign ExperimentCSVHeader one.
func (g *Grid) Matrix() bool { return g.matrix }

// cellErr labels a cell's error with its identity in matrix grids; a
// single campaign's errors pass through unchanged.
func (g *Grid) cellErr(i int, err error) error {
	if !g.matrix {
		return err
	}
	c := g.cells[i]
	return fmt.Errorf("runner: matrix cell %d (%s/%s): %w", i, c.Scenario, c.Attack, err)
}

// Run executes the cells in grid order against one Options set,
// streaming all results to the shared sinks. Every cell goes through
// Runner.Run on its scenario's engine, even when the shard/range filter
// selects none of its points: the engine's golden run is then simulated
// (once per Grid) and nothing else. Shard, resume and quarantine
// semantics apply to the flattened global grid exactly as they do to a
// single campaign: expNr is globally unique and contiguous across cells,
// sinks receive rows in global grid order, Progress counts over the
// whole selection, and Options.MaxFailures is a whole-grid budget.
func (g *Grid) Run(ctx context.Context, opts Options, sinks ...Sink) (*GridResult, error) {
	total := 0
	for _, cell := range g.cells {
		n := cell.Setup.NumExperiments()
		for nr := cell.Setup.Base; nr < cell.Setup.Base+n; nr++ {
			if opts.Shard.Contains(nr) && opts.Range.Contains(nr) {
				total++
			}
		}
	}

	out := &GridResult{}
	remainingFailures := opts.MaxFailures
	doneOffset := 0
	for i, cell := range g.cells {
		eng, err := g.engine(cell)
		if err != nil {
			return nil, g.cellErr(i, err)
		}
		cellOpts := opts
		cellOpts.MaxFailures = remainingFailures
		if opts.Progress != nil {
			offset := doneOffset
			cellOpts.Progress = func(done, _ int) { opts.Progress(offset+done, total) }
		}
		r, err := New(eng, cellOpts, sinks...)
		if err != nil {
			return nil, err
		}
		res, err := r.Run(ctx, cell.Setup)
		if err != nil {
			return nil, g.cellErr(i, err)
		}
		newFailures := 0
		for _, f := range res.Failures {
			if _, resumed := opts.ResumeFailures[f.Nr]; !resumed {
				newFailures++
			}
		}
		if remainingFailures >= 0 {
			remainingFailures -= newFailures
		}
		doneOffset += len(res.Experiments) + len(res.Failures)
		out.Cells = append(out.Cells, res)
		for _, e := range res.Experiments {
			out.Counts.Add(e.Outcome)
		}
		for _, f := range res.Failures {
			class, cerr := core.ParseFailureClass(f.Class)
			if cerr != nil {
				class = core.FailError
			}
			out.FailureCounts.Add(class)
		}
	}
	return out, nil
}

// engine returns the cell's scenario engine, building it on first use.
func (g *Grid) engine(cell MatrixCell) (*core.Engine, error) {
	if eng, ok := g.engines[cell.Scenario]; ok {
		return eng, nil
	}
	eng, err := core.NewEngine(cell.Engine)
	if err != nil {
		return nil, err
	}
	g.engines[cell.Scenario] = eng
	return eng, nil
}
