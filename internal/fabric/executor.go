package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"comfase/internal/analysis"
	"comfase/internal/config"
	"comfase/internal/core"
	"comfase/internal/obs"
	"comfase/internal/runner"
)

// Executor runs one leased grid range [from, to) and returns the wire
// rows: each grid point exactly once, either as its exact sequential CSV
// line or as its exact quarantine JSON line, both in ascending expNr
// order. The production executor wraps the ordinary campaign runner;
// tests substitute chaos-injecting ones.
type Executor interface {
	Execute(ctx context.Context, from, to int) ([]ResultRow, []FailureRow, error)
}

// ExecutorOptions tune the campaign executor beyond the config file.
type ExecutorOptions struct {
	// Metrics receives the runner/engine instrumentation.
	Metrics *obs.Registry
}

// campaignExecutor executes leased ranges through one runner.Grid with
// Options.Range, preserving every execution feature of a local campaign
// (checkpoint forking, trie chaining, retries, watchdogs) and therefore
// the byte-identical-output invariant. The Grid lives as long as the
// executor, so every scenario engine is built and its golden run
// simulated once per worker process, not once per lease, and a lease
// that continues a same-start group picks up the group's parked prefix
// checkpoint. Each Execute runs its lease on one runner slot; a worker
// keeps its cores busy by executing several leases at once.
type campaignExecutor struct {
	grid *runner.Grid
	base runner.Options
}

// NewExecutor builds the production executor from the raw config JSON a
// coordinator ships with a campaign's first lease. The runner options
// come from the config's runtime section, with four fabric-imposed
// changes: each lease runs on one runner slot (the worker, not the
// config's runtime.workers, decides how many leases run at once), the
// failure budget is unlimited (the coordinator owns the campaign-level
// budget), the lease range replaces any shard, and result/quarantine
// files are replaced by in-memory wire rows. Execute is safe for
// concurrent calls.
func NewExecutor(cfgJSON []byte, opts ExecutorOptions) (Executor, error) {
	parsed, err := config.Parse(bytes.NewReader(cfgJSON))
	if err != nil {
		return nil, fmt.Errorf("fabric: coordinator config: %w", err)
	}
	base := parsed.Runtime.RunnerOptions()
	base.MaxFailures = -1
	base.Shard = runner.Shard{}
	base.Metrics = opts.Metrics
	base.Workers = 1
	cells := parsed.Grid()
	for i := range cells {
		cells[i].Engine.Metrics = opts.Metrics
	}
	grid, err := runner.NewGrid(cells)
	if err != nil {
		return nil, fmt.Errorf("fabric: coordinator config: %w", err)
	}
	return &campaignExecutor{grid: grid, base: base}, nil
}

// Execute implements Executor.
func (e *campaignExecutor) Execute(ctx context.Context, from, to int) ([]ResultRow, []FailureRow, error) {
	rs := &rowSink{}
	fs := &failureSink{}
	opts := e.base
	opts.Range = runner.Range{From: from, To: to}
	opts.Quarantine = fs
	if _, err := e.grid.Run(ctx, opts, rs); err != nil {
		return nil, nil, err
	}
	return rs.rows, fs.failures, nil
}

// rowSink captures released results as wire rows holding the lines
// runner.CSVSink would write. The runner releases in grid order, so the
// rows arrive sorted by expNr.
type rowSink struct {
	rows []ResultRow
	buf  []byte
}

func (s *rowSink) Put(res core.ExperimentResult) error {
	s.buf = analysis.AppendCSVRow(s.buf[:0], res)
	s.rows = append(s.rows, ResultRow{Nr: res.Spec.Nr, Line: string(s.buf)})
	return nil
}

func (s *rowSink) Flush() error { return nil }

// failureSink captures quarantine records as the exact JSON line the
// sequential QuarantineSink would write (json.Marshal output; the
// Encoder adds only the trailing newline, which the coordinator appends
// on merge).
type failureSink struct {
	failures []FailureRow
}

func (s *failureSink) Put(f core.ExperimentFailure) error {
	rec, err := json.Marshal(f)
	if err != nil {
		return err
	}
	if !json.Valid(rec) {
		return errors.New("fabric: quarantine record did not marshal to valid JSON")
	}
	s.failures = append(s.failures, FailureRow{Nr: f.Nr, Record: rec})
	return nil
}

func (s *failureSink) Flush() error { return nil }
