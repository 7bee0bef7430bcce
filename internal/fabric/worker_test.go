package fabric

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"comfase/internal/obs"
)

func TestWorkerBackoffBounds(t *testing.T) {
	w, err := NewWorker(WorkerOptions{
		Coordinator: "http://test",
		RetryBase:   100 * time.Millisecond,
		RetryMax:    2 * time.Second,
		Seed:        42,
	})
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 1; attempt <= 12; attempt++ {
		// Exponential cap: attempt n's nominal delay is base * 2^(n-1),
		// never above RetryMax; jitter keeps it within [d/2, d].
		nominal := 100 * time.Millisecond << (attempt - 1)
		if nominal > 2*time.Second || nominal <= 0 {
			nominal = 2 * time.Second
		}
		for i := 0; i < 50; i++ {
			d := w.backoff(attempt)
			if d < nominal/2 || d > nominal {
				t.Fatalf("backoff(%d) = %v outside [%v, %v]", attempt, d, nominal/2, nominal)
			}
		}
	}
}

func TestWorkerPostRetriesTransient(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "flaky", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"granted":false,"chunk":0,"from":0,"to":0,"gen":0,"done":true,"draining":false}`))
	}))
	defer srv.Close()
	reg := obs.NewRegistry()
	w, err := NewWorker(WorkerOptions{
		Coordinator: srv.URL, MaxRetries: 5,
		RetryBase: time.Millisecond, RetryMax: 4 * time.Millisecond,
		Metrics: reg, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var resp LeaseResponse
	if err := w.post(context.Background(), PathLease, LeaseRequest{WorkerID: "w1"}, &resp); err != nil {
		t.Fatalf("post: %v", err)
	}
	if !resp.Done {
		t.Errorf("response not decoded: %+v", resp)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3 (2 failures + success)", got)
	}
	if got := reg.Snapshot().Counters["fabric.worker.coordinator_retries"]; got != 2 {
		t.Errorf("retry counter = %d, want 2", got)
	}
}

func TestWorkerPostPermanentOn4xx(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "fabric: protocol error", http.StatusBadRequest)
	}))
	defer srv.Close()
	w, err := NewWorker(WorkerOptions{
		Coordinator: srv.URL, MaxRetries: 5,
		RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var resp LeaseResponse
	err = w.post(context.Background(), PathLease, LeaseRequest{WorkerID: "w1"}, &resp)
	if err == nil {
		t.Fatal("4xx accepted")
	}
	if errors.Is(err, ErrCoordinatorUnreachable) {
		t.Fatalf("4xx reported as unreachable (was retried): %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d calls, want 1 (no retry on 4xx)", got)
	}
}

func TestWorkerPostExhaustsRetryBudget(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	w, err := NewWorker(WorkerOptions{
		Coordinator: srv.URL, MaxRetries: 3,
		RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var resp LeaseResponse
	err = w.post(context.Background(), PathLease, LeaseRequest{WorkerID: "w1"}, &resp)
	if !errors.Is(err, ErrCoordinatorUnreachable) {
		t.Fatalf("err = %v, want ErrCoordinatorUnreachable", err)
	}
	if got := calls.Load(); got != 4 {
		t.Errorf("server saw %d calls, want 4 (-max-coordinator-retries 3 = 1 + 3 retries)", got)
	}
}

func TestWorkerRunRejectsVersionSkew(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"version":99,"workerID":"w1","config":{},"base":0,"total":1,"leaseTTLMS":1000}`))
	}))
	defer srv.Close()
	w, err := NewWorker(WorkerOptions{Coordinator: srv.URL, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "protocol v99") {
		t.Fatalf("version skew not rejected: %v", err)
	}
}

// fakeLeaseExecutor answers every lease with schema-valid rows after
// step decides how the execution goes; it closes full once slots Execute
// calls run at once.
type fakeLeaseExecutor struct {
	slots    int32
	full     chan struct{}
	inFlight atomic.Int32
	calls    atomic.Int32
	step     func(ctx context.Context, call int32) error
}

func newFakeLeaseExecutor(slots int32) *fakeLeaseExecutor {
	return &fakeLeaseExecutor{slots: slots, full: make(chan struct{})}
}

func (e *fakeLeaseExecutor) Execute(ctx context.Context, from, to int) ([]ResultRow, []FailureRow, error) {
	if e.inFlight.Add(1) == e.slots {
		close(e.full)
	}
	defer e.inFlight.Add(-1)
	if err := e.step(ctx, e.calls.Add(1)); err != nil {
		return nil, nil, err
	}
	return testRows(from, to, ""), nil, nil
}

// waitFull blocks until every slot holds an Execute call, or fails after
// a deadline: a worker that ran its leases one at a time never gets
// there.
func (e *fakeLeaseExecutor) waitFull() error {
	select {
	case <-e.full:
		return nil
	case <-time.After(10 * time.Second):
		return errors.New("concurrent leases never reached the worker's slot count")
	}
}

// runFakeWorker runs one worker with the fake executor against a
// coordinator serving a gridConfig campaign, and returns Run's error.
func runFakeWorker(t *testing.T, opts ServiceOptions, points, workers int, ex *fakeLeaseExecutor, wrap func(http.Handler) http.Handler) error {
	t.Helper()
	svc, _ := newTestCoordinator(t, opts, gridConfig(points, false))
	h := svc.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	w, err := NewWorker(WorkerOptions{
		Coordinator: srv.URL,
		Workers:     workers,
		Seed:        1,
		NewExecutor: func([]byte) (Executor, error) { return ex, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return w.Run(ctx)
}

// TestWorkerRunsWorkersLeasesAtOnce: one worker process executes as many
// leases at once as it has slots, all through the one executor it built
// for the campaign, and finishes the grid cleanly.
func TestWorkerRunsWorkersLeasesAtOnce(t *testing.T) {
	ex := newFakeLeaseExecutor(3)
	ex.step = func(ctx context.Context, call int32) error {
		if call <= 3 {
			return ex.waitFull()
		}
		return nil
	}
	built := 0
	var mu sync.Mutex
	newExec := func([]byte) (Executor, error) {
		mu.Lock()
		built++
		mu.Unlock()
		return ex, nil
	}
	svc, files := newTestCoordinator(t, ServiceOptions{LeaseSize: 1, LeaseTTL: 10 * time.Second}, gridConfig(8, false))
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	w, err := NewWorker(WorkerOptions{Coordinator: srv.URL, Workers: 3, Seed: 1, NewExecutor: newExec})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if built != 1 {
		t.Errorf("executor built %d times for one campaign, want 1", built)
	}
	if got, want := readFile(t, files.Results), legacyHeader+testCSV(0, 8, ""); got != want {
		t.Errorf("merged results:\n%s\nwant:\n%s", got, want)
	}
}

// TestWorkerLoopErrorCancelsSiblings: the first loop error ends the run —
// the sibling loops' in-flight leases are cancelled, and Run returns that
// error, not the cancellations it induced.
func TestWorkerLoopErrorCancelsSiblings(t *testing.T) {
	boom := errors.New("injected lease failure")
	var cancelled atomic.Int32
	ex := newFakeLeaseExecutor(3)
	ex.step = func(ctx context.Context, call int32) error {
		if err := ex.waitFull(); err != nil {
			return err
		}
		if call == 1 {
			return boom
		}
		<-ctx.Done()
		cancelled.Add(1)
		return ctx.Err()
	}
	err := runFakeWorker(t, ServiceOptions{LeaseSize: 1, LeaseTTL: 10 * time.Second}, 8, 3, ex, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want the injected lease failure", err)
	}
	if got := cancelled.Load(); got != 2 {
		t.Errorf("%d sibling leases saw their context cancelled, want 2", got)
	}
}

// TestWorkerDoneWakesSleepingLoops: a loop told to poll again much later
// must not hold the worker past the end of the run — the Done that
// another loop's completion receives ends it at once.
func TestWorkerDoneWakesSleepingLoops(t *testing.T) {
	const ttl = 20 * time.Second // idle loops are told to wait ttl/2
	var empties atomic.Int32
	countEmpty := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h.ServeHTTP(w, r)
			if r.URL.Path == PathLease {
				empties.Add(1)
			}
		})
	}
	ex := newFakeLeaseExecutor(1)
	ex.step = func(ctx context.Context, _ int32) error {
		// Hold the only lease until the sibling loop has been answered
		// (it found nothing to lease and went to sleep).
		for empties.Load() < 2 {
			if err := sleepCtx(ctx, time.Millisecond); err != nil {
				return err
			}
		}
		return nil
	}
	start := time.Now()
	if err := runFakeWorker(t, ServiceOptions{LeaseSize: 4, LeaseTTL: ttl}, 4, 2, ex, countEmpty); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if took := time.Since(start); took >= ttl/4 {
		t.Errorf("Run took %v after Done, want well under the sibling's %v sleep", took, ttl/2)
	}
}

// TestWorkerDrainFinishesHeldLeases: a draining coordinator still merges
// leases it already granted, so a Draining answer on one loop stops the
// worker asking for more work but lets its other loops complete the
// leases they hold.
func TestWorkerDrainFinishesHeldLeases(t *testing.T) {
	svc, files := newTestCoordinator(t, ServiceOptions{LeaseSize: 2, LeaseTTL: 10 * time.Second}, gridConfig(8, false))
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	drained := make(chan struct{})
	ex := newFakeLeaseExecutor(2)
	ex.step = func(ctx context.Context, call int32) error {
		if err := ex.waitFull(); err != nil {
			return err
		}
		if call == 1 {
			svc.Drain()
			close(drained)
		}
		<-drained
		return nil
	}
	w, err := NewWorker(WorkerOptions{Coordinator: srv.URL, Workers: 2, Seed: 1, NewExecutor: func([]byte) (Executor, error) { return ex, nil }})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := merged(t, svc); got != 4 {
		t.Errorf("merged %d grid points, want the 4 of the two leases held when the drain began", got)
	}
	if !svc.idle() {
		t.Error("a lease is still outstanding after the worker exited")
	}
	if got, want := readFile(t, files.Results), legacyHeader+testCSV(0, 4, ""); got != want {
		t.Errorf("merged results:\n%s\nwant:\n%s", got, want)
	}
}
