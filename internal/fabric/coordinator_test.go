package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"comfase/internal/analysis"
	"comfase/internal/obs"
	"comfase/internal/runner"
)

// postProto drives one protocol endpoint of a service handler
// in-process and decodes the response.
func postProto(t *testing.T, h http.Handler, path string, req, resp any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code == http.StatusOK && resp != nil {
		if err := json.Unmarshal(w.Body.Bytes(), resp); err != nil {
			t.Fatalf("%s: malformed response %q: %v", path, w.Body.String(), err)
		}
	}
	return w.Code
}

// register registers a worker and returns its coordinator-assigned ID.
func register(t *testing.T, h http.Handler) string {
	t.Helper()
	var resp RegisterResponse
	if code := postProto(t, h, PathRegister, RegisterRequest{Host: "test"}, &resp); code != http.StatusOK {
		t.Fatalf("register: HTTP %d", code)
	}
	return resp.WorkerID
}

// lease acquires the next range for the worker, failing unless granted.
func lease(t *testing.T, h http.Handler, worker string) Lease {
	t.Helper()
	var resp LeaseResponse
	if code := postProto(t, h, PathLease, LeaseRequest{WorkerID: worker}, &resp); code != http.StatusOK {
		t.Fatalf("lease: HTTP %d", code)
	}
	if !resp.Granted {
		t.Fatalf("lease not granted: %+v", resp)
	}
	return Lease{Chunk: resp.Chunk, From: resp.From, To: resp.To, Gen: resp.Gen}
}

// testRows builds marker result rows for [from, to): each row's fields
// are (expNr, tag), so merged output identifies which execution won.
func testRows(from, to int, tag string) []ResultRow {
	var rows []ResultRow
	for nr := from; nr < to; nr++ {
		rows = append(rows, ResultRow{Nr: nr, Fields: []string{strconv.Itoa(nr), tag}})
	}
	return rows
}

// gridConfig is a delay campaign config whose grid has total points
// (one start, one duration, total values); with matrix set it is the
// same attack as a one-scenario matrix, which selects the matrix CSV
// schema. The coordinator tests fake every execution, so only the grid
// geometry matters.
func gridConfig(total int, matrix bool) []byte {
	values := make([]string, total)
	for i := range values {
		values[i] = strconv.Itoa(i + 1)
	}
	attack := `"valuesS": {"values": [` + strings.Join(values, ",") + `]},
	  "startTimesS": {"values": [17]}, "durationsS": {"values": [1]}`
	if matrix {
		return []byte(`{"matrix": {"scenarios": [{"name": "paper-platoon"}],
	  "attacks": [{"name": "delay", ` + attack + `}]}}`)
	}
	return []byte(`{"campaign": {"attack": "delay", ` + attack + `}}`)
}

// newTestCoordinator builds the single-campaign service `comfase serve
// -config` runs: FinishWhenDone, and one campaign (ID "c1") added with
// caller-owned writers. The config's grid must have total points; a nil
// ConfigJSON gets gridConfig(total), a nil Results the returned buffer.
func newTestCoordinator(t *testing.T, opts ServiceOptions, total int, spec CampaignSpec) (*Service, *bytes.Buffer) {
	t.Helper()
	var out bytes.Buffer
	if spec.ConfigJSON == nil {
		spec.ConfigJSON = gridConfig(total, false)
	}
	if spec.Results == nil {
		spec.Results = &out
	}
	opts.FinishWhenDone = true
	svc, err := NewService(opts)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	if id, err := svc.AddCampaign(spec); err != nil || id != "c1" {
		t.Fatalf("AddCampaign = %q, %v; want c1", id, err)
	}
	if st, _ := svc.CampaignStatusByID("c1"); st.Total != total {
		t.Fatalf("campaign grid = %d points, want %d", st.Total, total)
	}
	return svc, &out
}

// merged reports how many grid points of campaign c1 have been written
// out (the resumed prefix included).
func merged(t *testing.T, svc *Service) int {
	t.Helper()
	st, ok := svc.CampaignStatusByID("c1")
	if !ok {
		t.Fatal("campaign c1 missing")
	}
	return st.Merged
}

// waitDone runs c.Wait with a deadline and returns its error.
func waitDone(t *testing.T, c *Service) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errCh := make(chan error, 1)
	go func() { errCh <- c.Wait(ctx) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		t.Fatal("coordinator did not finish in time")
		return nil
	}
}

func TestCoordinatorFrontierOrder(t *testing.T) {
	c, out := newTestCoordinator(t, ServiceOptions{LeaseSize: 2}, 6, CampaignSpec{NoHeader: true})
	h := c.Handler()
	w1 := register(t, h)
	l0 := lease(t, h, w1) // [0,2)
	l1 := lease(t, h, w1) // [2,4)
	l2 := lease(t, h, w1) // [4,6)

	complete := func(l Lease) CompleteResponse {
		var resp CompleteResponse
		code := postProto(t, h, PathComplete, CompleteRequest{
			WorkerID: w1, Campaign: "c1", Chunk: l.Chunk, Gen: l.Gen, Rows: testRows(l.From, l.To, "v"),
		}, &resp)
		if code != http.StatusOK {
			t.Fatalf("complete chunk %d: HTTP %d", l.Chunk, code)
		}
		return resp
	}

	// Out-of-order completion: the frontier must hold everything back
	// until chunk 0 lands, then stream in grid order.
	complete(l2)
	if out.Len() != 0 {
		t.Fatalf("rows written before the frontier reached them: %q", out.String())
	}
	complete(l0)
	if got := merged(t, c); got != 2 {
		t.Fatalf("after chunk 0: merged %d, want 2 (chunk 2 still buffered)", got)
	}
	complete(l1)
	if err := waitDone(t, c); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	var want strings.Builder
	for nr := 0; nr < 6; nr++ {
		fmt.Fprintf(&want, "%d,v\n", nr)
	}
	if out.String() != want.String() {
		t.Errorf("merged CSV:\n%q\nwant:\n%q", out.String(), want.String())
	}
}

// TestCoordinatorStaleCompletionExactlyOnce is the acceptance check for
// re-leased ranges: a late completion from the presumed-dead worker is
// rejected by the generation counter, the re-execution's rows are merged,
// and every grid point lands in the output exactly once.
func TestCoordinatorStaleCompletionExactlyOnce(t *testing.T) {
	clock := newFakeClock()
	reg := obs.NewRegistry()
	c, out := newTestCoordinator(t, ServiceOptions{LeaseSize: 2, LeaseTTL: 10 * time.Second, Now: clock.Now, Metrics: reg}, 4, CampaignSpec{NoHeader: true, MaxFailures: -1})
	h := c.Handler()
	w1 := register(t, h)
	w2 := register(t, h)

	dead := lease(t, h, w1) // w1 takes [0,2) ... and goes silent
	clock.Advance(11 * time.Second)

	release := lease(t, h, w2) // expired, so w2 is re-granted [0,2)
	if release.Chunk != dead.Chunk || release.Gen != dead.Gen+1 {
		t.Fatalf("re-lease = %+v, want chunk %d gen %d", release, dead.Chunk, dead.Gen+1)
	}

	// w1 wakes up and tries to renew, then complete: both stale.
	var rr ReportResponse
	postProto(t, h, PathReport, ReportRequest{WorkerID: w1, Campaign: "c1", Chunk: dead.Chunk, Gen: dead.Gen}, &rr)
	if rr.OK || !rr.Cancel {
		t.Fatalf("stale report answered %+v, want cancel", rr)
	}
	var cr CompleteResponse
	postProto(t, h, PathComplete, CompleteRequest{
		WorkerID: w1, Campaign: "c1", Chunk: dead.Chunk, Gen: dead.Gen, Rows: testRows(dead.From, dead.To, "dead"),
	}, &cr)
	if cr.OK || !cr.Stale {
		t.Fatalf("stale completion answered %+v, want stale", cr)
	}
	if out.Len() != 0 {
		t.Fatalf("stale rows were merged: %q", out.String())
	}

	// The live executions win.
	postProto(t, h, PathComplete, CompleteRequest{
		WorkerID: w2, Campaign: "c1", Chunk: release.Chunk, Gen: release.Gen, Rows: testRows(release.From, release.To, "live"),
	}, &cr)
	if !cr.OK {
		t.Fatalf("live completion rejected: %+v", cr)
	}
	rest := lease(t, h, w2)
	postProto(t, h, PathComplete, CompleteRequest{
		WorkerID: w2, Campaign: "c1", Chunk: rest.Chunk, Gen: rest.Gen, Rows: testRows(rest.From, rest.To, "live"),
	}, &cr)
	if err := waitDone(t, c); err != nil {
		t.Fatalf("Wait: %v", err)
	}

	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("merged %d rows, want 4 (exactly once each): %q", len(lines), out.String())
	}
	for nr, line := range lines {
		if line != fmt.Sprintf("%d,live", nr) {
			t.Errorf("row %d = %q, want the re-execution's row", nr, line)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["fabric.leases_expired"] == 0 || snap.Counters["fabric.leases_released"] == 0 {
		t.Errorf("expiry metrics not recorded: %v", snap.Counters)
	}
	if snap.Counters["fabric.stale_rejected"] == 0 {
		t.Errorf("stale rejection not counted: %v", snap.Counters)
	}
}

func TestCoordinatorCoverageRejected(t *testing.T) {
	c, out := newTestCoordinator(t, ServiceOptions{LeaseSize: 2}, 4, CampaignSpec{NoHeader: true})
	h := c.Handler()
	w1 := register(t, h)
	l := lease(t, h, w1)

	bad := []CompleteRequest{
		// Missing expNr 1.
		{WorkerID: w1, Campaign: "c1", Chunk: l.Chunk, Gen: l.Gen, Rows: testRows(l.From, l.From+1, "v")},
		// ExpNr outside the range.
		{WorkerID: w1, Campaign: "c1", Chunk: l.Chunk, Gen: l.Gen, Rows: testRows(l.From, l.To+1, "v")},
		// Duplicated as both result and failure.
		{WorkerID: w1, Campaign: "c1", Chunk: l.Chunk, Gen: l.Gen, Rows: testRows(l.From, l.To, "v"),
			Failures: []FailureRow{{Nr: l.From, Record: json.RawMessage(`{}`)}}},
	}
	for i, req := range bad {
		if code := postProto(t, h, PathComplete, req, nil); code != http.StatusBadRequest {
			t.Errorf("bad completion %d: HTTP %d, want 400", i, code)
		}
	}
	if out.Len() != 0 {
		t.Fatalf("bad completions wrote rows: %q", out.String())
	}
	// The lease survived the garbage: a correct completion still lands.
	var cr CompleteResponse
	postProto(t, h, PathComplete, CompleteRequest{
		WorkerID: w1, Campaign: "c1", Chunk: l.Chunk, Gen: l.Gen, Rows: testRows(l.From, l.To, "v"),
	}, &cr)
	if !cr.OK {
		t.Fatalf("correct completion after rejections failed: %+v", cr)
	}
}

func TestCoordinatorResumePrefix(t *testing.T) {
	c, out := newTestCoordinator(t, ServiceOptions{LeaseSize: 2}, 6, CampaignSpec{NoHeader: true, ResumePrefix: 3})
	if got := merged(t, c); got != 3 {
		t.Fatalf("resumed Merged = %d, want 3", got)
	}
	h := c.Handler()
	w1 := register(t, h)
	l := lease(t, h, w1)
	if l.From != 3 || l.To != 4 {
		t.Fatalf("first lease after resume = [%d,%d), want the trimmed [3,4)", l.From, l.To)
	}
	var cr CompleteResponse
	postProto(t, h, PathComplete, CompleteRequest{
		WorkerID: w1, Campaign: "c1", Chunk: l.Chunk, Gen: l.Gen, Rows: testRows(l.From, l.To, "v"),
	}, &cr)
	l2 := lease(t, h, w1)
	postProto(t, h, PathComplete, CompleteRequest{
		WorkerID: w1, Campaign: "c1", Chunk: l2.Chunk, Gen: l2.Gen, Rows: testRows(l2.From, l2.To, "v"),
	}, &cr)
	if err := waitDone(t, c); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	want := "3,v\n4,v\n5,v\n"
	if out.String() != want {
		t.Errorf("resumed output = %q, want only the un-resumed rows %q", out.String(), want)
	}
}

func TestCoordinatorResumeComplete(t *testing.T) {
	c, out := newTestCoordinator(t, ServiceOptions{LeaseSize: 2}, 4, CampaignSpec{NoHeader: true, ResumePrefix: 4})
	if err := waitDone(t, c); err != nil {
		t.Fatalf("Wait on a fully resumed grid: %v", err)
	}
	if out.Len() != 0 {
		t.Errorf("fully resumed grid wrote rows: %q", out.String())
	}
}

func TestCoordinatorQuarantineMergeAndBudget(t *testing.T) {
	var quarantine bytes.Buffer
	c, out := newTestCoordinator(t, ServiceOptions{LeaseSize: 4}, 4, CampaignSpec{NoHeader: true, MaxFailures: 1, Quarantine: &quarantine})
	h := c.Handler()
	w1 := register(t, h)
	l := lease(t, h, w1)
	// 4 points: results at 0 and 2, failures at 1 and 3 — one over the
	// budget of 1.
	var cr CompleteResponse
	code := postProto(t, h, PathComplete, CompleteRequest{
		WorkerID: w1, Campaign: "c1", Chunk: l.Chunk, Gen: l.Gen,
		Rows: []ResultRow{
			{Nr: 0, Fields: []string{"0", "v"}},
			{Nr: 2, Fields: []string{"2", "v"}},
		},
		Failures: []FailureRow{
			{Nr: 1, Record: json.RawMessage(`{"expNr":1}`)},
			{Nr: 3, Record: json.RawMessage(`{"expNr":3}`)},
		},
	}, &cr)
	if code != http.StatusOK || !cr.OK {
		t.Fatalf("completion rejected: HTTP %d %+v", code, cr)
	}
	err := waitDone(t, c)
	if !errors.Is(err, runner.ErrFailureBudget) {
		t.Fatalf("Wait = %v, want ErrFailureBudget", err)
	}
	// The accepted records are durable despite the budget abort, and the
	// quarantine stream is grid-ordered.
	if got, want := out.String(), "0,v\n2,v\n"; got != want {
		t.Errorf("results = %q, want %q", got, want)
	}
	if got, want := quarantine.String(), `{"expNr":1}`+"\n"+`{"expNr":3}`+"\n"; got != want {
		t.Errorf("quarantine = %q, want %q", got, want)
	}
}

func TestCoordinatorDrainWithoutWorkers(t *testing.T) {
	c, _ := newTestCoordinator(t, ServiceOptions{LeaseSize: 2}, 4, CampaignSpec{NoHeader: true})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // immediate drain: nothing leased, nothing done
	err := c.Wait(ctx)
	if !errors.Is(err, ErrDrained) {
		t.Fatalf("Wait = %v, want ErrDrained", err)
	}
}

// TestCoordinatorHeaderSchema pins the lazy-header contract: the
// schema-correct header is written immediately before the first
// released row — and never otherwise, so an all-quarantined grid or a
// resume of an already-complete grid leaves the results writer
// untouched, exactly like runner.CSVSink.
func TestCoordinatorHeaderSchema(t *testing.T) {
	runGrid := func(matrix, fail bool) string {
		t.Helper()
		c, out := newTestCoordinator(t, ServiceOptions{LeaseSize: 1}, 1, CampaignSpec{ConfigJSON: gridConfig(1, matrix), MaxFailures: -1})
		h := c.Handler()
		w1 := register(t, h)
		l := lease(t, h, w1)
		req := CompleteRequest{WorkerID: w1, Campaign: "c1", Chunk: l.Chunk, Gen: l.Gen}
		if fail {
			req.Failures = []FailureRow{{Nr: 0, Record: []byte(`{"expNr":0}`)}}
		} else {
			req.Rows = testRows(0, 1, "v")
		}
		var resp CompleteResponse
		postProto(t, h, PathComplete, req, &resp)
		if !resp.OK {
			t.Fatalf("complete rejected: %+v", resp)
		}
		if err := waitDone(t, c); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}

	legacyHeader := strings.Join(analysis.ExperimentCSVHeader(), ",") + "\n"
	if got := runGrid(false, false); got != legacyHeader+"0,v\n" {
		t.Errorf("legacy output = %q, want header+row", got)
	}
	matrixHeader := strings.Join(analysis.MatrixCSVHeader(), ",") + "\n"
	if got := runGrid(true, false); got != matrixHeader+"0,v\n" {
		t.Errorf("matrix output = %q, want header+row", got)
	}
	// All experiments quarantined: no rows, so no header either.
	if got := runGrid(false, true); got != "" {
		t.Errorf("all-failure output = %q, want empty (lazy header)", got)
	}
	// Resuming a complete grid must not append a second header.
	c, out := newTestCoordinator(t, ServiceOptions{}, 1, CampaignSpec{ResumePrefix: 1})
	if err := waitDone(t, c); err != nil {
		t.Fatal(err)
	}
	if out.String() != "" {
		t.Errorf("resume-complete output = %q, want empty", out.String())
	}
}

func TestCoordinatorStatus(t *testing.T) {
	c, _ := newTestCoordinator(t, ServiceOptions{LeaseSize: 2}, 6, CampaignSpec{NoHeader: true})
	h := c.Handler()
	w1 := register(t, h)
	lease(t, h, w1)
	r := httptest.NewRequest(http.MethodGet, PathStatus, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	var st StatusResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.Total != 6 || st.Chunks != 3 || st.ChunksDone != 0 || len(st.Workers) != 1 {
		t.Errorf("status = %+v", st)
	}
	if !st.Workers[0].Live {
		t.Errorf("freshly registered worker not live: %+v", st.Workers[0])
	}
}

// TestAddCampaignRejectsBadSpec: a campaign added with caller-owned
// writers is checked before it reaches the scheduler.
func TestAddCampaignRejectsBadSpec(t *testing.T) {
	var out bytes.Buffer
	for name, spec := range map[string]CampaignSpec{
		"no config":       {Results: &out},
		"invalid config":  {ConfigJSON: []byte(`{`), Results: &out},
		"empty grid":      {ConfigJSON: []byte(`{}`), Results: &out},
		"no results":      {ConfigJSON: gridConfig(2, false)},
		"resume past end": {ConfigJSON: gridConfig(2, false), ResumePrefix: 3, Results: &out},
	} {
		svc, err := NewService(ServiceOptions{FinishWhenDone: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.AddCampaign(spec); err == nil {
			t.Errorf("%s: AddCampaign accepted %+v", name, spec)
		}
		if n := len(svc.ListCampaigns()); n != 0 {
			t.Errorf("%s: %d campaign(s) registered after a rejected add", name, n)
		}
	}
}
