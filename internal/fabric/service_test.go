package fabric

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"comfase/internal/analysis"
	"comfase/internal/runner"
)

// submitServiceConfig is a minimal real delay campaign: 3 grid points
// (1 value x 1 start x 3 durations), enough to exercise the submit
// path's config parsing without making the tests expensive.
const submitServiceConfig = `{
  "scenario": {"totalSimTimeS": 6},
  "campaign": {
    "attack": "delay",
    "valuesS": {"values": [0.3]},
    "startTimesS": {"values": [2]},
    "durationsS": {"values": [1, 2, 3]}
  }
}`

// newSchedulerService builds a submit-mode service on a fake clock with
// campaigns of the given grid sizes, added directly (bypassing the
// submit API) so lease geometry is exact.
func newSchedulerService(t *testing.T, clock *fakeClock, fairnessCap int, grids ...int) (*Service, []string) {
	t.Helper()
	svc, err := NewService(ServiceOptions{
		Dir:         t.TempDir(),
		LeaseSize:   2,
		LeaseTTL:    10 * time.Second,
		FairnessCap: fairnessCap,
		Now:         clock.Now,
	})
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	var ids []string
	for i, total := range grids {
		id := "c" + string(rune('1'+i))
		cfg := gridConfig(total, false)
		grid, _, err := campaignGrid(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.addCampaign(id, "", CampaignSpec{ConfigJSON: cfg, MaxFailures: -1}, grid); err != nil {
			t.Fatalf("addCampaign %s: %v", id, err)
		}
		ids = append(ids, id)
	}
	return svc, ids
}

// legacyRows fabricates schema-valid legacy result records for [from,
// to), so the files a submit-mode service writes stay parseable by the
// resume path's strict reader.
func legacyRows(from, to int) []ResultRow {
	var rows []ResultRow
	for nr := from; nr < to; nr++ {
		rows = append(rows, ResultRow{Nr: nr, Fields: []string{
			strconv.Itoa(nr), "delay", "0.3", "2.000", "1.000",
			"benign", "0.0000", "0.0000", "0", "",
		}})
	}
	return rows
}

// completeLease posts a full completion for the lease and returns the
// response.
func completeLease(t *testing.T, h http.Handler, worker, campaign string, l Lease) CompleteResponse {
	t.Helper()
	var resp CompleteResponse
	postProto(t, h, PathComplete, CompleteRequest{
		WorkerID: worker, Campaign: campaign, Chunk: l.Chunk, Gen: l.Gen,
		Rows: legacyRows(l.From, l.To),
	}, &resp)
	return resp
}

// leaseFull asks for a lease and returns the whole response (campaign
// included), failing the test unless granted.
func leaseFull(t *testing.T, h http.Handler, worker string) LeaseResponse {
	t.Helper()
	var resp LeaseResponse
	if code := postProto(t, h, PathLease, LeaseRequest{WorkerID: worker}, &resp); code != http.StatusOK {
		t.Fatalf("lease: HTTP %d", code)
	}
	if !resp.Granted {
		t.Fatalf("lease not granted: %+v", resp)
	}
	return resp
}

// TestSchedulerLeaseOrder is the table-driven fairness contract: which
// campaign each successive grant comes from, under different caps and
// completion patterns.
func TestSchedulerLeaseOrder(t *testing.T) {
	cases := []struct {
		name     string
		cap      int
		grids    []int // total grid points per campaign (LeaseSize 2)
		complete bool  // complete each lease before asking for the next
		want     []string
	}{
		{
			// Cap 1 with outstanding leases: after each campaign holds
			// one chunk, the work-conserving second pass hands out more,
			// still oldest-first — the queue interleaves c1,c2,c1,c2.
			name: "cap1 interleaves", cap: 1,
			grids: []int{4, 4},
			want:  []string{"c1", "c2", "c1", "c2"},
		},
		{
			// A high cap keeps the fleet on the oldest campaign until it
			// is fully leased, then moves on.
			name: "high cap drains oldest first", cap: 8,
			grids: []int{4, 4},
			want:  []string{"c1", "c1", "c2", "c2"},
		},
		{
			// Completing each lease before asking again keeps the oldest
			// campaign under its cap, so pass 1 stays on it until it is
			// fully leased — the cap only bites on outstanding leases.
			name: "cap1 completed leases", cap: 1,
			grids: []int{4, 4}, complete: true,
			want: []string{"c1", "c1", "c2", "c2"},
		},
		{
			// Three campaigns, cap 1: strict round-robin in submission
			// order while all have pending work.
			name: "three campaigns round robin", cap: 1,
			grids: []int{4, 4, 4},
			want:  []string{"c1", "c2", "c3", "c1", "c2", "c3"},
		},
		{
			// The cap never idles a worker: with only one campaign the
			// second pass ignores it entirely.
			name: "single campaign ignores cap", cap: 1,
			grids: []int{6},
			want:  []string{"c1", "c1", "c1"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := newFakeClock()
			svc, _ := newSchedulerService(t, clock, tc.cap, tc.grids...)
			h := svc.Handler()
			w1 := register(t, h)
			for i, want := range tc.want {
				lr := leaseFull(t, h, w1)
				if lr.Campaign != want {
					t.Fatalf("grant %d from %s, want %s", i, lr.Campaign, want)
				}
				if tc.complete {
					l := Lease{Chunk: lr.Chunk, From: lr.From, To: lr.To, Gen: lr.Gen}
					if resp := completeLease(t, h, w1, lr.Campaign, l); !resp.OK {
						t.Fatalf("grant %d completion rejected: %+v", i, resp)
					}
				}
			}
		})
	}
}

// TestSchedulerTTLExpiryCrossCampaign pins the re-lease path across
// campaigns: a dead worker's range from campaign c1 is re-granted — to a
// worker that has been serving c2 — once the TTL passes on the fake
// clock, with a bumped generation.
func TestSchedulerTTLExpiryCrossCampaign(t *testing.T) {
	clock := newFakeClock()
	svc, _ := newSchedulerService(t, clock, 1, 2, 4)
	h := svc.Handler()
	w1 := register(t, h)
	w2 := register(t, h)

	dead := leaseFull(t, h, w1) // c1's only chunk; w1 goes silent
	if dead.Campaign != "c1" {
		t.Fatalf("first grant from %s, want c1", dead.Campaign)
	}
	got := leaseFull(t, h, w2) // cap steers w2 to c2
	if got.Campaign != "c2" {
		t.Fatalf("second grant from %s, want c2", got.Campaign)
	}

	clock.Advance(11 * time.Second) // past the 10s TTL: w1 presumed dead

	release := leaseFull(t, h, w2)
	if release.Campaign != "c1" || release.Chunk != dead.Chunk || release.Gen != dead.Gen+1 {
		t.Fatalf("re-lease = %+v, want c1 chunk %d gen %d", release, dead.Chunk, dead.Gen+1)
	}
	// The dead worker's late completion is rejected idempotently.
	l := Lease{Chunk: dead.Chunk, From: dead.From, To: dead.To, Gen: dead.Gen}
	if resp := completeLease(t, h, w1, "c1", l); resp.OK || !resp.Stale {
		t.Fatalf("late completion answered %+v, want stale", resp)
	}
	// The re-execution's completion is the one that counts.
	l2 := Lease{Chunk: release.Chunk, From: release.From, To: release.To, Gen: release.Gen}
	if resp := completeLease(t, h, w2, "c1", l2); !resp.OK {
		t.Fatalf("re-execution completion rejected: %+v", resp)
	}
	st, ok := svc.CampaignStatusByID("c1")
	if !ok || st.State != StateDone || st.Merged != 2 {
		t.Fatalf("c1 status = %+v, want done with 2 merged", st)
	}
}

// TestSchedulerCancelMidLease pins the cancel contract: a campaign
// cancelled while a worker executes its range answers the next renew
// with cancel, rejects the late completion idempotently with stale:true
// (twice — idempotent), and grants nothing further from that campaign.
func TestSchedulerCancelMidLease(t *testing.T) {
	clock := newFakeClock()
	svc, _ := newSchedulerService(t, clock, 1, 4, 4)
	h := svc.Handler()
	w1 := register(t, h)

	lr := leaseFull(t, h, w1)
	if lr.Campaign != "c1" {
		t.Fatalf("grant from %s, want c1", lr.Campaign)
	}
	resp, found := svc.Cancel("c1")
	if !found || !resp.OK || resp.State != StateCancelled {
		t.Fatalf("Cancel = %+v found=%v", resp, found)
	}
	// Renew: told to abandon.
	var rr ReportResponse
	postProto(t, h, PathReport, ReportRequest{WorkerID: w1, Campaign: "c1", Chunk: lr.Chunk, Gen: lr.Gen}, &rr)
	if rr.OK || !rr.Cancel {
		t.Fatalf("renew after cancel answered %+v, want cancel", rr)
	}
	// Late completion: stale, idempotently.
	l := Lease{Chunk: lr.Chunk, From: lr.From, To: lr.To, Gen: lr.Gen}
	for i := 0; i < 2; i++ {
		if resp := completeLease(t, h, w1, "c1", l); resp.OK || !resp.Stale {
			t.Fatalf("completion %d after cancel answered %+v, want stale", i, resp)
		}
	}
	// Nothing written for the cancelled campaign.
	st, _ := svc.CampaignStatusByID("c1")
	if st.State != StateCancelled || st.Merged != 0 {
		t.Fatalf("c1 status = %+v, want cancelled with 0 merged", st)
	}
	// The fleet moves on to the next campaign.
	next := leaseFull(t, h, w1)
	if next.Campaign != "c2" {
		t.Fatalf("post-cancel grant from %s, want c2", next.Campaign)
	}
	// Cancelling again (or a terminal campaign) reports ok=false.
	if resp, found := svc.Cancel("c1"); !found || resp.OK || resp.State != StateCancelled {
		t.Fatalf("second cancel = %+v found=%v, want ok=false cancelled", resp, found)
	}
}

// TestServiceConfigShippedOncePerCampaign pins the Known-list contract:
// a campaign's config rides only the worker's first grant from it.
func TestServiceConfigShippedOncePerCampaign(t *testing.T) {
	clock := newFakeClock()
	svc, _ := newSchedulerService(t, clock, 8, 4)
	h := svc.Handler()
	w1 := register(t, h)

	first := leaseFull(t, h, w1)
	if len(first.Config) == 0 {
		t.Fatalf("first grant carries no config: %+v", first)
	}
	var second LeaseResponse
	postProto(t, h, PathLease, LeaseRequest{WorkerID: w1, Known: []string{first.Campaign}}, &second)
	if !second.Granted || second.Campaign != first.Campaign {
		t.Fatalf("second grant = %+v", second)
	}
	if len(second.Config) != 0 {
		t.Fatalf("config re-shipped to a worker that advertised it: %d bytes", len(second.Config))
	}
}

// TestServiceSubmitAPI drives the wire-level control plane end to end:
// submit two campaigns over HTTP, list them, read a status, complete one
// through the worker protocol, fetch its results snapshot, cancel the
// other — all against a dir-mode service whose on-disk layout must match
// runner.CampaignFilesIn.
func TestServiceSubmitAPI(t *testing.T) {
	dir := t.TempDir()
	svc, err := NewService(ServiceOptions{Dir: dir, LeaseSize: 8, LeaseTTL: 10 * time.Second})
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	h := svc.Handler()

	submit := func(name string) SubmitResponse {
		t.Helper()
		var resp SubmitResponse
		code := postProto(t, h, PathCampaigns, SubmitRequest{Name: name, Config: json.RawMessage(submitServiceConfig)}, &resp)
		if code != http.StatusOK {
			t.Fatalf("submit %s: HTTP %d", name, code)
		}
		return resp
	}
	s1 := submit("first")
	s2 := submit("second")
	if s1.CampaignID != "c1" || s2.CampaignID != "c2" || s2.Position != 2 {
		t.Fatalf("submissions = %+v, %+v", s1, s2)
	}
	if s1.Total != 3 {
		t.Fatalf("c1 grid = %d points, want 3", s1.Total)
	}
	if _, err := os.Stat(filepath.Join(dir, "c1.config.json")); err != nil {
		t.Fatalf("persisted config missing: %v", err)
	}

	// List in submission order, both queued.
	r := httptest.NewRequest(http.MethodGet, PathCampaigns, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	var list CampaignListResponse
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(list.Campaigns) != 2 || list.Campaigns[0].ID != "c1" || list.Campaigns[0].State != StateQueued {
		t.Fatalf("list = %+v", list.Campaigns)
	}

	// Run c1 through the worker protocol.
	w1 := register(t, h)
	lr := leaseFull(t, h, w1)
	if lr.Campaign != "c1" {
		t.Fatalf("grant from %s, want the oldest campaign c1", lr.Campaign)
	}
	l := Lease{Chunk: lr.Chunk, From: lr.From, To: lr.To, Gen: lr.Gen}
	if resp := completeLease(t, h, w1, "c1", l); !resp.OK {
		t.Fatalf("completion rejected: %+v", resp)
	}

	// Results endpoint: served from the atomic snapshot.
	r = httptest.NewRequest(http.MethodGet, PathCampaignResults+"?id=c1", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, r)
	var res CampaignResultsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatalf("results: %v", err)
	}
	if res.State != StateDone || res.Merged != 3 {
		t.Fatalf("results = state %s merged %d, want done/3", res.State, res.Merged)
	}
	if lines := strings.Split(strings.TrimSpace(res.CSV), "\n"); len(lines) != 4 { // header + 3 rows
		t.Fatalf("results CSV has %d lines, want 4:\n%s", len(lines), res.CSV)
	}
	// The snapshot matches what is durable on disk.
	onDisk, err := os.ReadFile(filepath.Join(dir, "c1.results.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if res.CSV != string(onDisk) {
		t.Errorf("results snapshot diverges from the on-disk file")
	}
	// Status document on disk, atomic and current.
	var st CampaignStatus
	stData, err := os.ReadFile(filepath.Join(dir, "c1.status.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(stData, &st); err != nil || st.State != StateDone || st.Merged != 3 {
		t.Fatalf("status doc = %+v (%v)", st, err)
	}

	// Cancel c2 over the wire.
	var cr CancelResponse
	if code := postProto(t, h, PathCampaignCancel, CancelRequest{CampaignID: "c2"}, &cr); code != http.StatusOK || !cr.OK {
		t.Fatalf("cancel: HTTP %d %+v", code, cr)
	}
	// Unknown campaigns 404.
	if code := postProto(t, h, PathCampaignCancel, CancelRequest{CampaignID: "nope"}, nil); code != http.StatusNotFound {
		t.Fatalf("cancel unknown: HTTP %d, want 404", code)
	}
}

// TestServiceSubmitRequiresDir pins the single-campaign guard: a service
// without a service directory refuses submissions with 403.
func TestServiceSubmitRequiresDir(t *testing.T) {
	c, _ := newTestCoordinator(t, ServiceOptions{LeaseSize: 2}, 2, CampaignSpec{NoHeader: true})
	code := postProto(t, c.Handler(), PathCampaigns, SubmitRequest{Config: json.RawMessage(`{}`)}, nil)
	if code != http.StatusForbidden {
		t.Fatalf("submit without -dir: HTTP %d, want 403", code)
	}
}

// TestServiceResumeDir pins dir-mode resume: a drained service's
// campaigns — one complete, one partial, one untouched — are re-adopted
// with their merged prefixes intact, and new submissions continue the ID
// numbering.
func TestServiceResumeDir(t *testing.T) {
	dir := t.TempDir()
	svc, err := NewService(ServiceOptions{Dir: dir, LeaseSize: 1, LeaseTTL: 10 * time.Second, FairnessCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	for _, name := range []string{"done", "partial", "untouched"} {
		var resp SubmitResponse
		if code := postProto(t, h, PathCampaigns, SubmitRequest{Name: name, Config: json.RawMessage(submitServiceConfig)}, &resp); code != http.StatusOK {
			t.Fatalf("submit %s: HTTP %d", name, code)
		}
	}
	w1 := register(t, h)
	// Finish all of c1 (3 one-point chunks) and 1 point of c2.
	for i := 0; i < 4; i++ {
		lr := leaseFull(t, h, w1)
		l := Lease{Chunk: lr.Chunk, From: lr.From, To: lr.To, Gen: lr.Gen}
		if resp := completeLease(t, h, w1, lr.Campaign, l); !resp.OK {
			t.Fatalf("completion %d rejected: %+v", i, resp)
		}
	}
	svc.Drain()
	svc.finish(nil) // release sinks without running Wait

	resumed, err := NewService(ServiceOptions{Dir: dir, Resume: true, LeaseSize: 1, LeaseTTL: 10 * time.Second})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	byID := map[string]CampaignStatus{}
	for _, st := range resumed.ListCampaigns() {
		byID[st.ID] = st
	}
	if st := byID["c1"]; st.State != StateDone || st.Merged != 3 {
		t.Errorf("resumed c1 = %+v, want done/3", st)
	}
	if st := byID["c2"]; st.Merged != 1 {
		t.Errorf("resumed c2 = %+v, want 1 merged", st)
	}
	if st := byID["c3"]; st.Merged != 0 {
		t.Errorf("resumed c3 = %+v, want untouched", st)
	}
	if byID["c2"].Name != "partial" {
		t.Errorf("resumed c2 name = %q, want preserved from the status doc", byID["c2"].Name)
	}
	// New submissions continue numbering past the resumed campaigns.
	resp, err := resumed.Submit("fresh", []byte(submitServiceConfig))
	if err != nil {
		t.Fatalf("post-resume submit: %v", err)
	}
	if resp.CampaignID != "c4" {
		t.Errorf("post-resume ID = %s, want c4", resp.CampaignID)
	}
	// And the resumed partial campaign leases only its remaining points.
	w2 := register(t, resumed.Handler())
	seen := map[string]int{}
	for {
		var lr LeaseResponse
		postProto(t, resumed.Handler(), PathLease, LeaseRequest{WorkerID: w2}, &lr)
		if !lr.Granted {
			break
		}
		seen[lr.Campaign]++
	}
	if seen["c1"] != 0 || seen["c2"] != 2 || seen["c3"] != 3 || seen["c4"] != 3 {
		t.Errorf("resumed lease distribution = %v, want c2:2 c3:3 c4:3", seen)
	}
	resumed.finish(nil)
}

// TestRunnerFilesHelpers covers the shared per-campaign file-layout
// helpers the service and CLI resume paths agree on.
func TestRunnerFilesHelpers(t *testing.T) {
	dir := t.TempDir()
	for _, id := range []string{"c10", "c2", "other"} {
		f := runner.CampaignFilesIn(dir, id)
		if err := os.WriteFile(f.Config, []byte(`{}`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	list, err := runner.ListCampaignDirs(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, f := range list {
		ids = append(ids, f.ID)
	}
	if got, want := strings.Join(ids, ","), "c2,c10,other"; got != want {
		t.Errorf("ListCampaignDirs order = %s, want %s (numeric-aware)", got, want)
	}
	// ReadMergedPrefix names the file it rejects: a record at expNr 5
	// with nothing in [1,5) is not a contiguous coordinator output.
	bad := runner.CampaignFilesIn(dir, "bad")
	var gapped strings.Builder
	gapped.WriteString(strings.Join(analysis.ExperimentCSVHeader(), ",") + "\n")
	for _, nr := range []int{0, 5} {
		gapped.WriteString(strings.Join(legacyRows(nr, nr+1)[0].Fields, ",") + "\n")
	}
	if err := os.WriteFile(bad.Results, []byte(gapped.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = runner.ReadMergedPrefix(bad.Results, bad.Quarantine, 0, 10)
	if err == nil || !strings.Contains(err.Error(), bad.Results) || !strings.Contains(err.Error(), "contiguous") {
		t.Errorf("gapped prefix error = %v, want it to name %s", err, bad.Results)
	}
}
