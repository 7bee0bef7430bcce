package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"comfase/internal/obs"
)

// ErrCoordinatorUnreachable wraps a coordinator call that exhausted its
// retry budget — the worker's "give up" signal, distinct from ordinary
// execution errors.
var ErrCoordinatorUnreachable = errors.New("fabric: coordinator unreachable")

// errLeaseLost is the internal signal that the current lease was
// cancelled under us (expired and re-granted elsewhere); the worker
// abandons the range and asks for a new lease.
var errLeaseLost = errors.New("fabric: lease lost")

// errGridDone is the internal signal that the run is over: a lease or
// completion answered Done, so the coordinator is about to shut down and
// every lease loop must exit without polling again.
var errGridDone = errors.New("fabric: grid complete")

// errDraining is the internal signal that the coordinator is draining:
// no loop asks for another lease.
var errDraining = errors.New("fabric: coordinator draining")

// WorkerOptions configure a fabric worker.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL, e.g. "http://host:7app".
	Coordinator string
	// Client is the HTTP client; nil uses a default with sane timeouts.
	Client *http.Client
	// Workers is the number of leases the worker executes at once, each
	// on one core; <= 0 selects GOMAXPROCS.
	Workers int
	// MaxRetries bounds consecutive failed attempts per coordinator call
	// (the -max-coordinator-retries budget). <= 0 uses the default.
	MaxRetries int
	// RetryBase/RetryMax bound the jittered exponential backoff between
	// attempts. Zero values use the defaults.
	RetryBase time.Duration
	RetryMax  time.Duration
	// Metrics receives the worker's and its executors' instrumentation.
	// May be nil.
	Metrics *obs.Registry
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
	// NewExecutor builds the range executor from the coordinator's config
	// JSON; nil uses the production campaign executor. Chaos tests swap in
	// crashing executors here.
	NewExecutor func(cfgJSON []byte) (Executor, error)
	// Seed seeds the backoff jitter; 0 derives one from the PID so
	// co-located workers desynchronise.
	Seed int64
}

// Defaults for WorkerOptions zero values.
const (
	DefaultMaxRetries = 8
	DefaultRetryBase  = 200 * time.Millisecond
	DefaultRetryMax   = 10 * time.Second
)

// Worker is a fabric worker process: it registers with a coordinator
// once, then runs Workers lease loops at once, each looping lease →
// execute → complete until the run is done or the coordinator drains.
// Leases are namespaced by campaign; each campaign's config arrives with
// its first lease grant (the worker advertises the campaigns it already
// knows), and all loops share one executor per campaign, so one worker
// serves many queued grids without restarting and keeps each campaign's
// engines, golden runs and parked prefix checkpoints for every lease. A
// renew goroutine reports each lease to the coordinator every TTL/3; if
// the coordinator answers Cancel — the lease expired and moved on, or the
// campaign was cancelled — that execution is aborted via context
// cancellation and its loop asks for fresh work.
type Worker struct {
	opts   WorkerOptions
	client *http.Client
	logf   func(string, ...any)

	id  string
	ttl time.Duration
	// execs holds one executor per campaign, shared by every loop; known
	// is the list of campaigns whose executor is ready, in first-seen
	// order, advertised on every lease request so the coordinator ships a
	// campaign's config only until the worker holds its executor. execMu
	// guards both.
	execMu sync.Mutex
	execs  map[string]*campaignExec
	known  []string

	rngMu sync.Mutex
	rng   *rand.Rand

	// Metrics.
	leases     *obs.Counter // leases acquired
	completed  *obs.Counter // leases completed and accepted
	staleDrops *obs.Counter // completions the coordinator rejected as stale
	cancels    *obs.Counter // leases abandoned after a Cancel
	retries    *obs.Counter // coordinator call attempts that failed and were retried
	rowsSent   *obs.Counter // result rows shipped
}

// NewWorker validates options and builds a worker.
func NewWorker(opts WorkerOptions) (*Worker, error) {
	if opts.Coordinator == "" {
		return nil, errors.New("fabric: worker needs a coordinator URL")
	}
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = DefaultMaxRetries
	}
	if opts.RetryBase <= 0 {
		opts.RetryBase = DefaultRetryBase
	}
	if opts.RetryMax < opts.RetryBase {
		opts.RetryMax = DefaultRetryMax
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	seed := opts.Seed
	if seed == 0 {
		seed = int64(os.Getpid())*1e9 + 1
	}
	reg := opts.Metrics
	return &Worker{
		opts:       opts,
		client:     client,
		logf:       logf,
		rng:        rand.New(rand.NewSource(seed)),
		leases:     reg.Counter("fabric.worker.leases_acquired"),
		completed:  reg.Counter("fabric.worker.leases_completed"),
		staleDrops: reg.Counter("fabric.worker.completions_stale"),
		cancels:    reg.Counter("fabric.worker.leases_cancelled"),
		retries:    reg.Counter("fabric.worker.coordinator_retries"),
		rowsSent:   reg.Counter("fabric.worker.rows_shipped"),
	}, nil
}

// campaignExec is one campaign's executor. The first loop to receive the
// campaign's config builds it and closes ready; loops granted a lease for
// the campaign meanwhile wait for that build instead of starting another.
type campaignExec struct {
	ready chan struct{}
	exec  Executor
	err   error
}

// leaseLoops is the state one Run shares between its lease loops.
type leaseLoops struct {
	parent context.Context
	// ctx ends every loop at once, in-flight leases included: it is
	// cancelled when the run is over (Done), on the first loop error, and
	// with parent.
	ctx    context.Context
	cancel context.CancelFunc
	// stop is closed on Draining: loops finish the lease they hold, then
	// exit without asking for another.
	stop     chan struct{}
	stopOnce sync.Once

	mu   sync.Mutex
	over bool  // Done or a loop error ended the run; later loop errors are induced
	err  error // the first loop error that was not induced
}

// end records how one loop finished and ends its siblings accordingly.
func (l *leaseLoops) end(err error) {
	switch {
	case err == nil:
	case errors.Is(err, errDraining):
		l.stopOnce.Do(func() { close(l.stop) })
	default:
		l.mu.Lock()
		if !l.over && !errors.Is(err, errGridDone) && l.parent.Err() == nil {
			l.err = err
		}
		l.over = true
		l.mu.Unlock()
		l.cancel()
	}
}

// Run registers, executes leases on Workers concurrent loops until the
// campaign finishes (or the coordinator drains), and returns nil on a
// clean finish. A Done answer on any loop ends every loop at once; a
// Draining answer lets loops finish the leases they hold, then ends
// them. The first loop error cancels the other loops and is returned;
// the errors that cancellation induces in the siblings are not. A
// cancelled ctx aborts mid-lease and returns the context error; a
// coordinator unreachable past the retry budget returns
// ErrCoordinatorUnreachable.
func (w *Worker) Run(ctx context.Context) error {
	host, _ := os.Hostname()
	var reg RegisterResponse
	if err := w.post(ctx, PathRegister, RegisterRequest{Host: host, PID: os.Getpid()}, &reg); err != nil {
		return err
	}
	if reg.Version != ProtocolVersion {
		return fmt.Errorf("fabric: coordinator speaks protocol v%d, worker v%d", reg.Version, ProtocolVersion)
	}
	if reg.LeaseTTLMS <= 0 {
		return fmt.Errorf("%w: non-positive lease TTL %dms", ErrProtocol, reg.LeaseTTLMS)
	}
	w.id = reg.WorkerID
	w.ttl = time.Duration(reg.LeaseTTLMS) * time.Millisecond
	w.execs = make(map[string]*campaignExec)
	n := w.opts.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	w.logf("registered as %s: lease TTL %v, %d concurrent lease(s)", w.id, w.ttl, n)

	l := &leaseLoops{parent: ctx, stop: make(chan struct{})}
	l.ctx, l.cancel = context.WithCancel(ctx)
	defer l.cancel()
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.end(w.leaseLoop(l))
		}()
	}
	wg.Wait()
	if l.err != nil {
		return l.err
	}
	return ctx.Err()
}

// leaseLoop is one lease loop: lease → execute → complete until the run
// ends. It returns errGridDone or errDraining when the coordinator says
// so, nil when a sibling's Draining stops it, and any other error as is.
func (w *Worker) leaseLoop(l *leaseLoops) error {
	for {
		select {
		case <-l.stop:
			return nil
		default:
		}
		if err := l.ctx.Err(); err != nil {
			return err
		}
		var lr LeaseResponse
		if err := w.post(l.ctx, PathLease, LeaseRequest{WorkerID: w.id, Known: w.knownCampaigns()}, &lr); err != nil {
			return err
		}
		switch {
		case lr.Done:
			w.logf("run complete; exiting")
			return errGridDone
		case lr.Draining:
			w.logf("coordinator draining; exiting")
			return errDraining
		case !lr.Granted:
			// Nothing pending right now; outstanding leases may expire
			// and new campaigns may be submitted. A sibling's Done or
			// Draining cuts the wait short.
			wait := time.Duration(lr.RetryMS) * time.Millisecond
			if wait <= 0 {
				wait = w.ttl / 2
			}
			timer := time.NewTimer(wait)
			select {
			case <-l.ctx.Done():
				timer.Stop()
				return l.ctx.Err()
			case <-l.stop:
				timer.Stop()
				return nil
			case <-timer.C:
			}
			continue
		}
		exec, err := w.executorFor(l.ctx, lr.Campaign, lr.Config)
		if err != nil {
			return err
		}
		lease := Lease{Chunk: lr.Chunk, From: lr.From, To: lr.To, Gen: lr.Gen}
		w.leases.Inc()
		w.logf("lease %s/%d gen %d: range [%d,%d)", lr.Campaign, lease.Chunk, lease.Gen, lease.From, lease.To)
		if err := w.runLease(l.ctx, lr.Campaign, lease, exec); err != nil {
			if errors.Is(err, errLeaseLost) {
				w.cancels.Inc()
				w.logf("lease %s/%d gen %d lost; asking for new work", lr.Campaign, lease.Chunk, lease.Gen)
				continue
			}
			if errors.Is(err, errGridDone) {
				// Our completion finished the run: the coordinator is
				// shutting down, so don't poll it for another lease.
				w.logf("run complete; exiting")
			}
			return err
		}
	}
}

// knownCampaigns is the Known list of a lease request.
func (w *Worker) knownCampaigns() []string {
	w.execMu.Lock()
	defer w.execMu.Unlock()
	return w.known[:len(w.known):len(w.known)]
}

// executorFor resolves the campaign's executor: built by an earlier lease
// (or being built by a sibling loop, which it waits for), or built from
// the config shipped with this grant (the coordinator sends it whenever
// the campaign is absent from the request's Known list).
func (w *Worker) executorFor(ctx context.Context, campaign string, cfg json.RawMessage) (Executor, error) {
	if campaign == "" {
		return nil, fmt.Errorf("%w: lease grant names no campaign", ErrProtocol)
	}
	w.execMu.Lock()
	ce, ok := w.execs[campaign]
	if !ok {
		if len(cfg) == 0 {
			w.execMu.Unlock()
			return nil, fmt.Errorf("%w: lease grant for unknown campaign %s carries no config", ErrProtocol, campaign)
		}
		ce = &campaignExec{ready: make(chan struct{})}
		w.execs[campaign] = ce
	}
	w.execMu.Unlock()
	if ok {
		select {
		case <-ce.ready:
			return ce.exec, ce.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	newExec := w.opts.NewExecutor
	if newExec == nil {
		newExec = func(cfgJSON []byte) (Executor, error) {
			return NewExecutor(cfgJSON, ExecutorOptions{Metrics: w.opts.Metrics})
		}
	}
	ce.exec, ce.err = newExec(cfg)
	if ce.err != nil {
		ce.err = fmt.Errorf("fabric: campaign %s config: %w", campaign, ce.err)
	} else {
		w.execMu.Lock()
		w.known = append(w.known, campaign)
		w.execMu.Unlock()
		w.logf("campaign %s config received; executor ready", campaign)
	}
	close(ce.ready)
	return ce.exec, ce.err
}

// runLease executes one leased range with a TTL/3 renew loop alongside.
func (w *Worker) runLease(ctx context.Context, campaign string, lease Lease, exec Executor) error {
	leaseCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var lost bool // set by the renew loop before cancelling leaseCtx
	var lostMu sync.Mutex
	renewDone := make(chan struct{})
	go func() {
		defer close(renewDone)
		interval := w.ttl / 3
		if interval <= 0 {
			interval = time.Millisecond
		}
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-leaseCtx.Done():
				return
			case <-ticker.C:
			}
			var resp ReportResponse
			// Renews use single attempts: the next tick retries anyway, and
			// the lease survives missed renews for a full TTL.
			err := w.postOnce(leaseCtx, PathReport, ReportRequest{
				WorkerID: w.id, Campaign: campaign, Chunk: lease.Chunk, Gen: lease.Gen,
			}, &resp)
			if err != nil {
				if leaseCtx.Err() != nil {
					return
				}
				w.retries.Inc()
				continue
			}
			if resp.Cancel {
				lostMu.Lock()
				lost = true
				lostMu.Unlock()
				cancel()
				return
			}
		}
	}()

	rows, failures, err := exec.Execute(leaseCtx, lease.From, lease.To)
	cancel()
	<-renewDone
	if err != nil {
		lostMu.Lock()
		wasLost := lost
		lostMu.Unlock()
		if wasLost {
			return errLeaseLost
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("fabric: lease %s/%d [%d,%d): %w", campaign, lease.Chunk, lease.From, lease.To, err)
	}

	var resp CompleteResponse
	if err := w.post(ctx, PathComplete, CompleteRequest{
		WorkerID: w.id, Campaign: campaign, Chunk: lease.Chunk, Gen: lease.Gen, Rows: rows, Failures: failures,
	}, &resp); err != nil {
		return err
	}
	if resp.Stale {
		// The range was re-leased while we worked (or its campaign was
		// cancelled): our payload was discarded (idempotently — the
		// surviving execution's rows are the ones merged). Not an error;
		// just move on.
		w.staleDrops.Inc()
		w.logf("lease %s/%d gen %d completed stale; results discarded by coordinator", campaign, lease.Chunk, lease.Gen)
	} else {
		w.completed.Inc()
		w.rowsSent.Add(uint64(len(rows)))
	}
	if resp.Done {
		return errGridDone
	}
	return nil
}

// post calls a coordinator endpoint with the capped-exponential-backoff
// retry budget: transport errors and 5xx responses retry with jitter up
// to MaxRetries consecutive attempts; 4xx responses are protocol bugs
// and fail immediately.
func (w *Worker) post(ctx context.Context, path string, req, resp any) error {
	var lastErr error
	for attempt := 0; attempt <= w.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			w.retries.Inc()
			if err := sleepCtx(ctx, w.backoff(attempt)); err != nil {
				return err
			}
		}
		err := w.postOnce(ctx, path, req, resp)
		if err == nil {
			return nil
		}
		var pe *permanentError
		if errors.As(err, &pe) {
			return pe.err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		lastErr = err
	}
	return fmt.Errorf("%w: %s failed after %d attempts: %v",
		ErrCoordinatorUnreachable, path, w.opts.MaxRetries+1, lastErr)
}

// permanentError marks a coordinator response that retrying cannot fix.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// postOnce is a single POST attempt: marshal, send, decode.
func (w *Worker) postOnce(ctx context.Context, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return &permanentError{err: err}
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opts.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return &permanentError{err: err}
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpResp, err := w.client.Do(httpReq)
	if err != nil {
		return err
	}
	defer httpResp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(httpResp.Body, maxMessageBytes+1))
	if err != nil {
		return err
	}
	if httpResp.StatusCode != http.StatusOK {
		err := fmt.Errorf("fabric: %s: coordinator answered %s: %s",
			path, httpResp.Status, bytes.TrimSpace(data))
		if httpResp.StatusCode >= 400 && httpResp.StatusCode < 500 {
			return &permanentError{err: err}
		}
		return err
	}
	if err := json.Unmarshal(data, resp); err != nil {
		return fmt.Errorf("fabric: %s: malformed response: %w", path, err)
	}
	return nil
}

// backoff computes the jittered capped exponential delay before retry
// attempt n (n >= 1): full jitter over [base/2, base] · 2^(n-1), capped
// at RetryMax.
func (w *Worker) backoff(attempt int) time.Duration {
	d := w.opts.RetryBase
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= w.opts.RetryMax {
			d = w.opts.RetryMax
			break
		}
	}
	if d > w.opts.RetryMax {
		d = w.opts.RetryMax
	}
	w.rngMu.Lock()
	jittered := d/2 + time.Duration(w.rng.Int63n(int64(d/2)+1))
	w.rngMu.Unlock()
	return jittered
}

// sleepCtx sleeps d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}
