package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"comfase/internal/config"
	"comfase/internal/core"
	"comfase/internal/fabric"
	"comfase/internal/runner"
)

// runnerWorkers is the runner's worker count on every path: one per core
// of the 2-core reference host.
const runnerWorkers = 2

// workload is one way of pushing a grid slice through the program.
type workload struct {
	name      string
	earlyExit bool // the config turns early exit on
	fabric    bool // run through the fabric service and one worker
}

var workloads = []workload{
	{name: "delay-trie"},
	{name: "delay-early-exit", earlyExit: true},
	{name: "delay-fabric", fabric: true},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// meter is a reading of the process's clock, CPU time and allocation
// counters, and of the host's steal time.
type meter struct {
	at      time.Time
	cpu     time.Duration
	steal   time.Duration
	mallocs uint64
	bytes   uint64
}

func readMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return meter{at: time.Now(), cpu: cpu, steal: readSteal(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// peakRSSMB is the process's peak resident set so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

// campaign is one measured campaign: set-up, then the grid.
type campaign struct {
	setup  time.Duration // engine build + golden run (+ service, worker and executor start on the fabric)
	start  meter         // taken when set-up ends
	end    meter         // taken when the last row is out
	csv    []byte        // the merged result CSV
	failed int           // grid points quarantined
	leases [][2]int      // ranges executed: the whole grid locally, one per lease on the fabric
}

func (c campaign) wall() time.Duration { return c.end.at.Sub(c.start.at) }
func (c campaign) cpu() time.Duration  { return c.end.cpu - c.start.cpu }

// runCampaign runs the workload's grid once through its production path.
// tr is nil for an untraced run. With setupOnly the run stops as soon as
// set-up is over, returning only the set-up time.
func runCampaign(ctx context.Context, w workload, cfgJSON []byte, dir string, tr *tracer, setupOnly bool) (campaign, error) {
	if w.fabric {
		return runFabric(ctx, cfgJSON, dir, tr, setupOnly)
	}
	return runLocal(ctx, cfgJSON, dir, tr, setupOnly)
}

// runLocal is `comfase campaign -results file`: engine, golden run, then
// Runner.Run streaming rows to a CSV sink on disk.
func runLocal(ctx context.Context, cfgJSON []byte, dir string, tr *tracer, setupOnly bool) (campaign, error) {
	trace := tr.traceID()
	var c campaign
	t0 := time.Now()
	parsed, err := config.Parse(bytes.NewReader(cfgJSON))
	if err != nil {
		return c, err
	}
	root := tr.begin(trace, "campaign", 0)
	defer tr.finish(root)
	ecfg := parsed.Engine
	ecfg.Metrics = tr.reg()
	eng, err := buildEngine(ecfg, tr, trace, root.ID)
	if err != nil {
		return c, err
	}
	if err := tr.do(trace, "core.Engine.EnsureGolden", root.ID, func() error { return eng.EnsureGolden(ctx) }); err != nil {
		return c, err
	}
	c.setup = time.Since(t0)
	if setupOnly {
		return c, nil
	}

	path := filepath.Join(dir, "results.csv")
	f, err := os.Create(path)
	if err != nil {
		return c, err
	}
	defer f.Close()
	var sink runner.Sink = runner.NewCSVSink(f)
	if tr != nil {
		sink = &timedSink{inner: sink, tr: tr, trace: trace, parent: root.ID}
	}
	quarantine := &runner.MemoryFailureSink{}
	opts := runner.Options{
		Workers:            parsed.Runtime.Workers,
		Retries:            parsed.Runtime.Retries,
		RetryBackoff:       parsed.Runtime.RetryBackoff,
		ExperimentTimeout:  parsed.Runtime.ExperimentTimeout,
		MaxFailures:        parsed.Runtime.MaxFailures,
		Quarantine:         quarantine,
		DisableCheckpoints: parsed.Runtime.DisableCheckpoints,
		DisableTrie:        parsed.Runtime.DisableTrie,
		Metrics:            tr.reg(),
	}
	c.start = readMeter()
	var r *runner.Runner
	err = tr.do(trace, "runner.New", root.ID, func() (err error) {
		r, err = runner.New(eng, opts, sink)
		return err
	})
	if err != nil {
		return c, err
	}
	runErr := tr.do(trace, "runner.Runner.Run", root.ID, func() error {
		_, err := r.Run(ctx, parsed.Campaign)
		return err
	})
	c.end = readMeter()
	c.failed = len(quarantine.Failures)
	c.leases = [][2]int{{parsed.Campaign.Base, parsed.Campaign.Base + parsed.Campaign.NumExperiments()}}
	if err := f.Close(); err != nil {
		return c, err
	}
	if c.csv, err = os.ReadFile(path); err != nil {
		return c, err
	}
	return c, runErr
}

func buildEngine(cfg core.EngineConfig, tr *tracer, trace string, parent int64) (*core.Engine, error) {
	var eng *core.Engine
	err := tr.do(trace, "core.NewEngine", parent, func() (err error) {
		eng, err = core.NewEngine(cfg)
		return err
	})
	return eng, err
}

// errSetupDone stops a set-up-only fabric run at its first lease.
var errSetupDone = errors.New("set-up complete")

// fabricRun is the benchmark's side of one fabric campaign: it wraps the
// production executor to time each lease and to see where set-up ends.
type fabricRun struct {
	ctx       context.Context
	tr        *tracer
	trace     string
	parent    int64
	total     int
	t0        time.Time
	setupOnly bool

	mu      sync.Mutex
	c       campaign
	started bool
	lastEnd time.Time // when the previous lease finished executing
}

// newExecutor is WorkerOptions.NewExecutor: the production executor,
// primed with an empty range so its engine build and golden run happen
// before the first lease executes, as they do before Runner.Run locally.
func (f *fabricRun) newExecutor(cfgJSON []byte) (fabric.Executor, error) {
	var ex fabric.Executor
	err := f.tr.do(f.trace, "fabric.NewExecutor", f.parent, func() (err error) {
		ex, err = fabric.NewExecutor(cfgJSON, fabric.ExecutorOptions{Metrics: f.tr.reg()})
		if err != nil {
			return err
		}
		_, _, err = ex.Execute(f.ctx, f.total, f.total)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &leaseExecutor{inner: ex, run: f}, nil
}

// leaseExecutor records busy and idle time per lease.
type leaseExecutor struct {
	inner fabric.Executor
	run   *fabricRun
}

func (e *leaseExecutor) Execute(ctx context.Context, from, to int) ([]fabric.ResultRow, []fabric.FailureRow, error) {
	f := e.run
	f.mu.Lock()
	now := time.Now()
	if !f.started {
		f.started = true
		f.c.setup = now.Sub(f.t0)
		if f.setupOnly {
			f.mu.Unlock()
			return nil, nil, errSetupDone
		}
		f.c.start = readMeter()
		now = f.c.start.at
	}
	idleFrom := f.lastEnd
	f.c.leases = append(f.c.leases, [2]int{from, to})
	f.mu.Unlock()

	trace := fmt.Sprintf("lease-%d-%d", from, to)
	if !idleFrom.IsZero() {
		f.tr.add(trace, "fabric.worker.idle", f.parent, idleFrom, now)
	}
	var rows []fabric.ResultRow
	var fails []fabric.FailureRow
	err := f.tr.do(trace, "fabric.Executor.Execute", f.parent, func() (err error) {
		rows, fails, err = e.inner.Execute(ctx, from, to)
		return err
	})

	f.mu.Lock()
	f.lastEnd = time.Now()
	f.mu.Unlock()
	return rows, fails, err
}

// runFabric is `comfase serve` + `comfase submit` + `comfase work
// -workers 2` in one process: a fabric.Service with the default lease
// size and TTL behind a loopback HTTP server, one campaign submitted, and
// one fabric.Worker running the production executor until the service
// reports the grid done.
func runFabric(ctx context.Context, cfgJSON []byte, dir string, tr *tracer, setupOnly bool) (c campaign, err error) {
	trace := tr.traceID()
	t0 := time.Now()
	root := tr.begin(trace, "campaign", 0)
	defer tr.finish(root)
	parsed, err := config.Parse(bytes.NewReader(cfgJSON))
	if err != nil {
		return c, err
	}
	svcDir := filepath.Join(dir, "service")
	defer os.RemoveAll(svcDir)
	var svc *fabric.Service
	err = tr.do(trace, "fabric.NewService", root.ID, func() (err error) {
		svc, err = fabric.NewService(fabric.ServiceOptions{Dir: svcDir, FinishWhenDone: true, Metrics: tr.reg()})
		return err
	})
	if err != nil {
		return c, err
	}
	var handler http.Handler = svc.Handler()
	transport := http.DefaultTransport.(*http.Transport).Clone()
	var rt http.RoundTripper = transport
	if tr != nil {
		handler = tracedHandler(handler, tr, trace, root.ID)
		rt = &tracedTransport{base: transport, tr: tr, trace: trace, parent: root.ID}
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()
	defer transport.CloseIdleConnections()

	sub, err := svc.Submit("bench", cfgJSON)
	if err != nil {
		return c, err
	}
	waitCtx, stopService := context.WithCancel(ctx)
	defer stopService()
	svcErr := make(chan error, 1)
	go func() { svcErr <- svc.Wait(waitCtx) }()

	run := &fabricRun{ctx: ctx, tr: tr, trace: trace, parent: root.ID, total: parsed.Campaign.NumExperiments(), t0: t0, setupOnly: setupOnly}
	worker, err := fabric.NewWorker(fabric.WorkerOptions{
		Coordinator: srv.URL,
		Client:      &http.Client{Transport: rt, Timeout: 30 * time.Second},
		Metrics:     tr.reg(),
		NewExecutor: run.newExecutor,
		Seed:        1,
	})
	if err != nil {
		svc.Cancel(sub.CampaignID)
		stopService()
		<-svcErr
		return c, err
	}
	workErr := tr.do(trace, "fabric.Worker.Run", root.ID, func() error { return worker.Run(ctx) })
	if workErr != nil {
		// The campaign cannot finish without its worker: cancel it so the
		// drain completes at once instead of waiting out the lease TTL.
		svc.Cancel(sub.CampaignID)
		stopService()
	}
	waitErr := <-svcErr
	end := readMeter()

	run.mu.Lock()
	c = run.c
	lastEnd := run.lastEnd
	run.mu.Unlock()
	if setupOnly {
		if errors.Is(workErr, errSetupDone) {
			return c, nil
		}
		return c, fmt.Errorf("fabric set-up: %v", workErr)
	}
	c.end = end
	if !lastEnd.IsZero() {
		tr.add(trace, "fabric.worker.idle", root.ID, lastEnd, end.at)
	}
	if workErr != nil {
		return c, workErr
	}
	if waitErr != nil {
		return c, waitErr
	}
	res, ok := svc.Results(sub.CampaignID)
	if !ok || res == nil {
		return c, fmt.Errorf("fabric: no results for %s", sub.CampaignID)
	}
	c.csv = []byte(res.CSV)
	if q := strings.TrimSpace(res.Quarantine); q != "" {
		c.failed = strings.Count(q, "\n") + 1
	}
	return c, nil
}
