package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"comfase/internal/analysis"
	"comfase/internal/classify"
	"comfase/internal/core"
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

// testLine is a schema-valid results line for expNr nr whose collider
// column carries tag, so merged output identifies which execution won;
// a scenario label selects the matrix schema.
func testLine(nr int, scenario, tag string) string {
	return string(analysis.AppendCSVRow(nil, core.ExperimentResult{
		Spec:     core.ExperimentSpec{Nr: nr, Scenario: scenario, Attack: "delay"},
		Outcome:  classify.Benign,
		Collider: tag,
	}))
}

// testRows builds single-campaign result rows for [from, to) tagged
// with tag.
func testRows(from, to int, tag string) []ResultRow {
	var rows []ResultRow
	for nr := from; nr < to; nr++ {
		rows = append(rows, ResultRow{Nr: nr, Line: testLine(nr, "", tag)})
	}
	return rows
}

// testCSV renders testRows(from, to, tag) as the lines a merged results
// file holds.
func testCSV(from, to int, tag string) string {
	var b strings.Builder
	for _, r := range testRows(from, to, tag) {
		b.WriteString(r.Line)
	}
	return b.String()
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

// withMaxFailures sets a config's runtime.maxFailures, the campaign's
// failure budget.
func withMaxFailures(cfg []byte, n int) []byte {
	return []byte(`{"runtime": {"maxFailures": ` + strconv.Itoa(n) + `}, ` + string(cfg[1:]))
}

// newTestCoordinator builds the service `comfase serve -config C -dir D`
// runs: a FinishWhenDone service whose directory (a fresh t.TempDir()
// unless opts.Dir is set) holds one campaign, c1, submitted from cfg. A
// resumed service re-adopts c1 from the directory instead, as the CLI
// does. It returns c1's file layout.
func newTestCoordinator(t *testing.T, opts ServiceOptions, cfg []byte) (*Service, runner.CampaignFiles) {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	opts.FinishWhenDone = true
	svc, err := NewService(opts)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	if len(svc.ListCampaigns()) == 0 {
		if resp, err := svc.Submit("", cfg); err != nil || resp.CampaignID != "c1" {
			t.Fatalf("Submit = %+v, %v; want c1", resp, err)
		}
	}
	return svc, runner.CampaignFilesIn(opts.Dir, "c1")
}

// seedCampaign writes campaign c1's persisted config and merged files
// into dir, as a drained service would have left them.
func seedCampaign(t *testing.T, dir string, cfg []byte, results, quarantine string) runner.CampaignFiles {
	t.Helper()
	files := runner.CampaignFilesIn(dir, "c1")
	for path, data := range map[string]string{files.Config: string(cfg), files.Results: results, files.Quarantine: quarantine} {
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// readFile returns a merged file's current bytes ("" when missing).
func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return string(data)
}

// legacyHeader is the single-campaign results CSV header line.
var legacyHeader = strings.Join(analysis.ExperimentCSVHeader(), ",") + "\n"

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
	c, files := newTestCoordinator(t, ServiceOptions{LeaseSize: 2}, gridConfig(6, false))
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
	if got := readFile(t, files.Results); got != "" {
		t.Fatalf("rows written before the frontier reached them: %q", got)
	}
	complete(l0)
	if got := merged(t, c); got != 2 {
		t.Fatalf("after chunk 0: merged %d, want 2 (chunk 2 still buffered)", got)
	}
	complete(l1)
	if err := waitDone(t, c); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	want := legacyHeader + testCSV(0, 6, "v")
	if got := readFile(t, files.Results); got != want {
		t.Errorf("merged CSV:\n%q\nwant:\n%q", got, want)
	}
}

// TestCoordinatorStaleCompletionExactlyOnce is the acceptance check for
// re-leased ranges: a late completion from the presumed-dead worker is
// rejected by the generation counter, the re-execution's rows are merged,
// and every grid point lands in the output exactly once.
func TestCoordinatorStaleCompletionExactlyOnce(t *testing.T) {
	clock := newFakeClock()
	reg := obs.NewRegistry()
	c, files := newTestCoordinator(t, ServiceOptions{LeaseSize: 2, LeaseTTL: 10 * time.Second, Now: clock.Now, Metrics: reg},
		withMaxFailures(gridConfig(4, false), -1))
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
	if got := readFile(t, files.Results); got != "" {
		t.Fatalf("stale rows were merged: %q", got)
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

	want := legacyHeader + testCSV(0, 4, "live")
	if got := readFile(t, files.Results); got != want {
		t.Errorf("merged CSV = %q, want each grid point exactly once, from the re-execution: %q", got, want)
	}
	if got := readFile(t, files.Quarantine); got != "" {
		t.Errorf("quarantine = %q, want empty", got)
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
	c, files := newTestCoordinator(t, ServiceOptions{LeaseSize: 2}, gridConfig(4, false))
	h := c.Handler()
	w1 := register(t, h)
	l := lease(t, h, w1)

	// withFirstLine is the lease's valid rows with the first row's line
	// replaced.
	withFirstLine := func(line string) []ResultRow {
		rows := testRows(l.From, l.To, "v")
		rows[0].Line = line
		return rows
	}
	bad := []CompleteRequest{
		// Missing expNr 1.
		{WorkerID: w1, Campaign: "c1", Chunk: l.Chunk, Gen: l.Gen, Rows: testRows(l.From, l.From+1, "v")},
		// ExpNr outside the range.
		{WorkerID: w1, Campaign: "c1", Chunk: l.Chunk, Gen: l.Gen, Rows: testRows(l.From, l.To+1, "v")},
		// Duplicated as both result and failure.
		{WorkerID: w1, Campaign: "c1", Chunk: l.Chunk, Gen: l.Gen, Rows: testRows(l.From, l.To, "v"),
			Failures: []FailureRow{{Nr: l.From, Record: json.RawMessage(`{}`)}}},
		// A line whose first field disagrees with its expNr.
		{WorkerID: w1, Campaign: "c1", Chunk: l.Chunk, Gen: l.Gen, Rows: withFirstLine(testLine(l.From+1, "", "v"))},
		// Two records in one line.
		{WorkerID: w1, Campaign: "c1", Chunk: l.Chunk, Gen: l.Gen, Rows: withFirstLine(testLine(l.From, "", "v") + testLine(l.From, "", "v"))},
		// A line without its trailing newline.
		{WorkerID: w1, Campaign: "c1", Chunk: l.Chunk, Gen: l.Gen, Rows: withFirstLine(strings.TrimSuffix(testLine(l.From, "", "v"), "\n"))},
		// A matrix-schema line (one field too many) in a single campaign.
		{WorkerID: w1, Campaign: "c1", Chunk: l.Chunk, Gen: l.Gen, Rows: withFirstLine(testLine(l.From, "paper-platoon", "v"))},
	}
	for i, req := range bad {
		if code := postProto(t, h, PathComplete, req, nil); code != http.StatusBadRequest {
			t.Errorf("bad completion %d: HTTP %d, want 400", i, code)
		}
	}
	if got := readFile(t, files.Results); got != "" {
		t.Fatalf("bad completions wrote rows: %q", got)
	}
	// The lease survived the garbage: a correct completion still lands.
	var cr CompleteResponse
	postProto(t, h, PathComplete, CompleteRequest{
		WorkerID: w1, Campaign: "c1", Chunk: l.Chunk, Gen: l.Gen, Rows: testRows(l.From, l.To, "v"),
	}, &cr)
	if !cr.OK {
		t.Fatalf("correct completion after rejections failed: %+v", cr)
	}
	if got, want := readFile(t, files.Results), legacyHeader+testCSV(l.From, l.To, "v"); got != want {
		t.Errorf("merged CSV after rejections = %q, want %q", got, want)
	}
}

func TestCoordinatorResumePrefix(t *testing.T) {
	dir := t.TempDir()
	prior := legacyHeader + testCSV(0, 3, "")
	seedCampaign(t, dir, gridConfig(6, false), prior, "")
	c, files := newTestCoordinator(t, ServiceOptions{Dir: dir, Resume: true, LeaseSize: 2}, nil)
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
	want := prior + testCSV(3, 6, "v")
	if got := readFile(t, files.Results); got != want {
		t.Errorf("resumed output = %q, want the prior prefix plus only the un-resumed rows %q", got, want)
	}
}

func TestCoordinatorResumeComplete(t *testing.T) {
	dir := t.TempDir()
	prior := legacyHeader + testCSV(0, 4, "")
	seedCampaign(t, dir, gridConfig(4, false), prior, "")
	c, files := newTestCoordinator(t, ServiceOptions{Dir: dir, Resume: true, LeaseSize: 2}, nil)
	if err := waitDone(t, c); err != nil {
		t.Fatalf("Wait on a fully resumed grid: %v", err)
	}
	if got := readFile(t, files.Results); got != prior {
		t.Errorf("fully resumed grid rewrote its results: %q", got)
	}
}

func TestCoordinatorQuarantineMergeAndBudget(t *testing.T) {
	c, files := newTestCoordinator(t, ServiceOptions{LeaseSize: 4}, withMaxFailures(gridConfig(4, false), 1))
	h := c.Handler()
	w1 := register(t, h)
	l := lease(t, h, w1)
	// 4 points: results at 0 and 2, failures at 1 and 3 — one over the
	// budget of 1.
	var cr CompleteResponse
	code := postProto(t, h, PathComplete, CompleteRequest{
		WorkerID: w1, Campaign: "c1", Chunk: l.Chunk, Gen: l.Gen,
		Rows: []ResultRow{
			{Nr: 0, Line: testLine(0, "", "v")},
			{Nr: 2, Line: testLine(2, "", "v")},
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
	if got, want := readFile(t, files.Results), legacyHeader+testLine(0, "", "v")+testLine(2, "", "v"); got != want {
		t.Errorf("results = %q, want %q", got, want)
	}
	if got, want := readFile(t, files.Quarantine), `{"expNr":1}`+"\n"+`{"expNr":3}`+"\n"; got != want {
		t.Errorf("quarantine = %q, want %q", got, want)
	}
}

func TestCoordinatorDrainWithoutWorkers(t *testing.T) {
	c, _ := newTestCoordinator(t, ServiceOptions{LeaseSize: 2}, gridConfig(4, false))
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
// resume of an already-complete grid leaves the results file untouched,
// exactly like runner.CSVSink.
func TestCoordinatorHeaderSchema(t *testing.T) {
	// runGrid runs a one-point grid; a scenario label makes it a matrix.
	runGrid := func(scenario string, fail bool) string {
		t.Helper()
		c, files := newTestCoordinator(t, ServiceOptions{LeaseSize: 1}, withMaxFailures(gridConfig(1, scenario != ""), -1))
		h := c.Handler()
		w1 := register(t, h)
		l := lease(t, h, w1)
		req := CompleteRequest{WorkerID: w1, Campaign: "c1", Chunk: l.Chunk, Gen: l.Gen}
		if fail {
			req.Failures = []FailureRow{{Nr: 0, Record: []byte(`{"expNr":0}`)}}
		} else {
			req.Rows = []ResultRow{{Nr: 0, Line: testLine(0, scenario, "v")}}
		}
		var resp CompleteResponse
		postProto(t, h, PathComplete, req, &resp)
		if !resp.OK {
			t.Fatalf("complete rejected: %+v", resp)
		}
		if err := waitDone(t, c); err != nil {
			t.Fatal(err)
		}
		return readFile(t, files.Results)
	}

	if got := runGrid("", false); got != legacyHeader+testLine(0, "", "v") {
		t.Errorf("legacy output = %q, want header+row", got)
	}
	matrixHeader := strings.Join(analysis.MatrixCSVHeader(), ",") + "\n"
	if got := runGrid("paper-platoon", false); got != matrixHeader+testLine(0, "paper-platoon", "v") {
		t.Errorf("matrix output = %q, want header+row", got)
	}
	// All experiments quarantined: no rows, so no header either.
	if got := runGrid("", true); got != "" {
		t.Errorf("all-failure output = %q, want empty (lazy header)", got)
	}
	// Resuming a complete grid must not append a second header.
	dir := t.TempDir()
	prior := legacyHeader + testCSV(0, 1, "")
	seedCampaign(t, dir, gridConfig(1, false), prior, "")
	c, files := newTestCoordinator(t, ServiceOptions{Dir: dir, Resume: true}, nil)
	if err := waitDone(t, c); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, files.Results); got != prior {
		t.Errorf("resume-complete output = %q, want it unchanged", got)
	}
}

func TestCoordinatorStatus(t *testing.T) {
	c, _ := newTestCoordinator(t, ServiceOptions{LeaseSize: 2}, gridConfig(6, false))
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

// TestSubmitRejectsBadConfig: a submitted config is checked before it
// reaches the scheduler or the service directory, and a rejection does
// not consume a campaign ID.
func TestSubmitRejectsBadConfig(t *testing.T) {
	for name, cfg := range map[string][]byte{
		"no config":      nil,
		"invalid config": []byte(`{`),
		"empty grid":     []byte(`{}`),
	} {
		dir := t.TempDir()
		svc, err := NewService(ServiceOptions{Dir: dir, FinishWhenDone: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Submit("", cfg); err == nil {
			t.Errorf("%s: Submit accepted %q", name, cfg)
		}
		if n := len(svc.ListCampaigns()); n != 0 {
			t.Errorf("%s: %d campaign(s) registered after a rejected submission", name, n)
		}
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
			t.Errorf("%s: service dir holds %d file(s) after a rejected submission (%v)", name, len(entries), err)
		}
		if resp, err := svc.Submit("", gridConfig(2, false)); err != nil || resp.CampaignID != "c1" {
			t.Errorf("%s: next submission = %+v, %v; want c1", name, resp, err)
		}
	}
}
