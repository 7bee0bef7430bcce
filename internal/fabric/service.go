package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"comfase/internal/analysis"
	"comfase/internal/config"
	"comfase/internal/obs"
	"comfase/internal/runner"
)

// Campaign lifecycle states as reported by the control plane.
const (
	StateQueued    = "queued"    // submitted, no range granted yet
	StateRunning   = "running"   // at least one range granted
	StateDone      = "done"      // every grid point merged
	StateFailed    = "failed"    // fatal error (failure budget, sink I/O)
	StateCancelled = "cancelled" // cancelled by the operator
)

// ErrDrained marks a service that shut down in draining mode with work
// incomplete: everything leased at drain time was finished (or expired)
// and flushed, but un-leased ranges were never executed. A later
// `comfase serve -resume` run picks up exactly where each campaign's
// merged prefix ends.
var ErrDrained = errors.New("fabric: drained before the grid completed")

// DefaultLeaseTTL is the worker lease time-to-live used when the
// service is configured without one. Long enough that a loaded worker
// renewing at TTL/3 never flaps, short enough that a dead worker's range
// is re-leased promptly.
const DefaultLeaseTTL = 15 * time.Second

// DefaultLeaseSize is the per-lease range length used when the service
// is configured without one.
const DefaultLeaseSize = 16

// DefaultFairnessCap bounds how many chunks one campaign may hold leased
// while other active campaigns still have pending work. The scheduler is
// work-conserving: the cap shapes preference, it never idles a worker.
const DefaultFairnessCap = 4

// ServiceOptions configure a multi-campaign fabric Service.
type ServiceOptions struct {
	// Dir is the service directory (required): every campaign's config,
	// merged results, quarantine and status document live side by side
	// in it under the runner.CampaignFilesIn layout.
	Dir string
	// Resume re-adopts every campaign already in Dir: each
	// `<id>.config.json` is re-submitted with its merged contiguous prefix
	// skipped, so a restarted service picks up exactly where the previous
	// incarnation's frontier stopped.
	Resume bool
	// LeaseSize is the range length per lease (<= 0 selects
	// DefaultLeaseSize).
	LeaseSize int
	// LeaseTTL is the worker lease time-to-live (<= 0 selects
	// DefaultLeaseTTL).
	LeaseTTL time.Duration
	// FairnessCap bounds per-campaign concurrent leases while other
	// campaigns have pending work (<= 0 selects DefaultFairnessCap).
	FairnessCap int
	// FinishWhenDone makes Wait return once every submitted campaign is
	// terminal, and makes a campaign's fatal error the service's — the
	// `serve -config` behavior. Without it the service runs until
	// drained, accepting submissions forever.
	FinishWhenDone bool
	// Metrics receives the fabric counters and gauges; nil disables.
	Metrics *obs.Registry
	// Now is the clock (nil = time.Now); injectable for expiry tests.
	Now func() time.Time
	// Logf, when non-nil, receives one line per notable event.
	Logf func(format string, args ...any)
}

// chunkPayload buffers an accepted range until the frontier reaches it.
type chunkPayload struct {
	rows     []ResultRow
	failures []FailureRow
}

// workerInfo is the service's per-worker liveness record.
type workerInfo struct {
	host     string
	pid      int
	lastSeen time.Time
	// retry is the RetryMS the worker was last given: it promised to poll
	// again within that long of lastSeen.
	retry time.Duration
	// notifiedEnd: this worker has been told the run is over (a Done
	// lease/complete response or a Draining lease response), so it will
	// not poll again. Linger waits for every live worker to reach it.
	notifiedEnd bool
}

// live reports whether the worker may still call: it is live until one
// lease TTL past the poll it promised.
func (w *workerInfo) live(now time.Time, ttl time.Duration) bool {
	return now.Before(w.lastSeen.Add(w.retry + ttl))
}

// serviceCampaign is one campaign's full server-side state. The lease
// table locks itself; everything else is guarded by Service.mu (lock
// order: Service.mu may be held while calling table methods, never the
// reverse).
type serviceCampaign struct {
	id, name    string
	seq         int
	base, total int
	matrix      bool
	maxFailures int
	configJSON  []byte
	files       runner.CampaignFiles
	table       *LeaseTable

	// Sinks: the merged results and quarantine files, each mirrored in
	// memory for the results snapshot. A mirror byte is never rewritten
	// once a snapshot has published it, so a snapshot may hold a prefix
	// of a mirror while later releases append to it.
	results, quarantine *os.File
	mem, memQ           []byte

	// Release frontier (guarded by Service.mu).
	buffered      map[int]chunkPayload
	nextChunk     int
	merged        int
	failures      int
	headerPending bool
	started       bool
	cancelled     bool
	failedErr     error

	// snapshot is the results endpoint's only data source: swapped
	// atomically at every frontier release and state change, never read
	// through worker or lease-table state.
	snapshot atomic.Pointer[resultsView]

	rowsMerged     *obs.Counter // labeled per campaign
	failuresMerged *obs.Counter
}

// Service is the multi-campaign fabric coordinator: a queue of campaign
// grids, each with its own namespaced lease table, generation counters,
// release frontier and output files, drained oldest-first by a shared
// worker fleet under a per-campaign fairness cap. Create with
// NewService, mount Handler, submit campaigns (Submit or the
// /v1/campaigns API), then Wait.
type Service struct {
	opts ServiceOptions
	now  func() time.Time
	mux  *http.ServeMux

	mu        sync.Mutex
	campaigns map[string]*serviceCampaign
	order     []string // campaign IDs in submission order
	workers   map[string]*workerInfo
	nextWID   int
	nextSeq   int
	draining  bool
	err       error
	doneCh    chan struct{}
	doneOnce  sync.Once

	rowsMerged     *obs.Counter // aggregate over all campaigns
	failuresMerged *obs.Counter
	workersLive    *obs.Gauge
	workersSeen    *obs.Counter
	submitted      *obs.Counter
	finished       *obs.Counter
}

// NewService validates the options, creates the service directory and,
// with Resume, re-adopts every campaign already present in it.
func NewService(opts ServiceOptions) (*Service, error) {
	if opts.Dir == "" {
		return nil, errors.New("fabric: the campaign service needs a service directory")
	}
	if opts.LeaseSize <= 0 {
		opts.LeaseSize = DefaultLeaseSize
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = DefaultLeaseTTL
	}
	if opts.FairnessCap <= 0 {
		opts.FairnessCap = DefaultFairnessCap
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	s := &Service{
		opts:           opts,
		now:            now,
		campaigns:      make(map[string]*serviceCampaign),
		workers:        make(map[string]*workerInfo),
		doneCh:         make(chan struct{}),
		rowsMerged:     opts.Metrics.Counter("fabric.rows_merged"),
		failuresMerged: opts.Metrics.Counter("fabric.failures_merged"),
		workersLive:    opts.Metrics.Gauge("fabric.workers_live"),
		workersSeen:    opts.Metrics.Counter("fabric.workers_registered"),
		submitted:      opts.Metrics.Counter("fabric.campaigns_submitted"),
		finished:       opts.Metrics.Counter("fabric.campaigns_finished"),
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("fabric: service dir: %w", err)
	}
	if opts.Resume {
		if err := s.resumeDir(); err != nil {
			return nil, err
		}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST "+PathRegister, s.handleRegister)
	s.mux.HandleFunc("POST "+PathLease, s.handleLease)
	s.mux.HandleFunc("POST "+PathReport, s.handleReport)
	s.mux.HandleFunc("POST "+PathComplete, s.handleComplete)
	s.mux.HandleFunc("GET "+PathStatus, s.handleStatus)
	s.mux.HandleFunc("POST "+PathCampaigns, s.handleSubmit)
	s.mux.HandleFunc("GET "+PathCampaigns, s.handleList)
	s.mux.HandleFunc("GET "+PathCampaignStatus, s.handleCampaignStatus)
	s.mux.HandleFunc("POST "+PathCampaignCancel, s.handleCancel)
	s.mux.HandleFunc("GET "+PathCampaignResults, s.handleResults)
	return s, nil
}

// Handler returns the service's HTTP handler (worker data plane plus the
// /v1/campaigns control plane).
func (s *Service) Handler() http.Handler { return s.mux }

func (s *Service) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// campaignGrid parses a raw campaign config into its grid and failure
// budget; the grid supplies a campaign's geometry and CSV schema.
func campaignGrid(cfgJSON []byte) (*runner.Grid, int, error) {
	parsed, err := config.Parse(bytes.NewReader(cfgJSON))
	if err != nil {
		return nil, 0, err
	}
	grid, err := runner.NewGrid(parsed.Grid())
	if err != nil {
		return nil, 0, err
	}
	return grid, parsed.Runtime.MaxFailures, nil
}

// Submit enqueues a new campaign from its raw config file, persists the
// config under the service directory, and returns the assigned ID.
func (s *Service) Submit(name string, cfgJSON []byte) (SubmitResponse, error) {
	grid, budget, err := campaignGrid(cfgJSON)
	if err != nil {
		return SubmitResponse{}, fmt.Errorf("fabric: submitted config: %w", err)
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return SubmitResponse{}, errors.New("fabric: service is draining; submissions closed")
	}
	s.nextSeq++
	id := "c" + strconv.Itoa(s.nextSeq)
	s.mu.Unlock()
	files := runner.CampaignFilesIn(s.opts.Dir, id)
	if err := os.WriteFile(files.Config, cfgJSON, 0o644); err != nil {
		return SubmitResponse{}, fmt.Errorf("fabric: persisting campaign config: %w", err)
	}
	c, err := s.addCampaign(id, name, cfgJSON, grid, budget, 0)
	if err != nil {
		return SubmitResponse{}, err
	}
	return SubmitResponse{CampaignID: c.id, Base: c.base, Total: c.total, Position: c.seq}, nil
}

// resumeDir re-adopts every campaign in the service directory: the
// persisted config is the source of truth, the merged files' contiguous
// prefix is skipped, and ID numbering continues past the highest
// existing campaign number.
func (s *Service) resumeDir() error {
	list, err := runner.ListCampaignDirs(s.opts.Dir)
	if err != nil {
		return fmt.Errorf("fabric: scanning service dir: %w", err)
	}
	for _, files := range list {
		cfgJSON, err := os.ReadFile(files.Config)
		if err != nil {
			return fmt.Errorf("fabric: campaign %s: %w", files.ID, err)
		}
		grid, budget, err := campaignGrid(cfgJSON)
		if err != nil {
			return fmt.Errorf("fabric: campaign %s config %s: %w", files.ID, files.Config, err)
		}
		prefix, err := runner.ReadMergedPrefix(files.Results, files.Quarantine, grid.Base(), grid.Size())
		if err != nil {
			return fmt.Errorf("fabric: campaign %s: %w", files.ID, err)
		}
		name := ""
		if data, err := os.ReadFile(files.Status); err == nil {
			var st CampaignStatus
			if json.Unmarshal(data, &st) == nil {
				name = st.Name
			}
		}
		if _, err := s.addCampaign(files.ID, name, cfgJSON, grid, budget, prefix); err != nil {
			return err
		}
		s.logf("resumed campaign %s: %d/%d grid points already merged", files.ID, prefix, grid.Size())
		if _, n, ok := runner.SplitTrailingInt(files.ID); ok && n >= s.nextSeq {
			s.nextSeq = n
		}
	}
	return nil
}

// addCampaign builds the campaign's lease table over the grid, opens its
// files under the service directory — past a resumed prefix of already
// merged grid points, when prefix > 0 — and registers it with the
// scheduler. budget is the campaign failure budget, with the runner's
// semantics: 0 aborts on the first quarantined experiment, negative is
// unlimited, and resumed failures do not count.
func (s *Service) addCampaign(id, name string, cfgJSON []byte, grid *runner.Grid, budget, prefix int) (*serviceCampaign, error) {
	base, total := grid.Base(), grid.Size()
	if prefix < 0 || prefix > total {
		return nil, fmt.Errorf("fabric: resume prefix %d outside grid of %d", prefix, total)
	}
	table, err := NewLeaseTable(base, total, s.opts.LeaseSize, s.opts.LeaseTTL, s.now, s.opts.Metrics, "campaign", id)
	if err != nil {
		return nil, err
	}
	c := &serviceCampaign{
		id: id, name: name,
		base: base, total: total,
		matrix: grid.Matrix(), maxFailures: budget,
		configJSON:     cfgJSON,
		files:          runner.CampaignFilesIn(s.opts.Dir, id),
		table:          table,
		buffered:       make(map[int]chunkPayload),
		rowsMerged:     s.opts.Metrics.Counter(obs.Label("fabric.campaign.rows_merged", "campaign", id)),
		failuresMerged: s.opts.Metrics.Counter(obs.Label("fabric.campaign.failures_merged", "campaign", id)),
	}
	if err := c.openSinks(prefix > 0); err != nil {
		return nil, err
	}
	if prefix > 0 {
		table.MarkDonePrefix(base + prefix)
		for c.nextChunk < table.NumChunks() {
			_, to, _ := table.Bounds(c.nextChunk)
			if to > base+prefix {
				break
			}
			c.nextChunk++
		}
		c.merged = prefix
	}

	s.mu.Lock()
	if _, dup := s.campaigns[id]; dup {
		s.mu.Unlock()
		c.closeSinks()
		return nil, fmt.Errorf("fabric: duplicate campaign ID %q", id)
	}
	c.seq = len(s.order) + 1
	s.campaigns[id] = c
	s.order = append(s.order, id)
	s.publishLocked(c)
	s.mu.Unlock()
	s.submitted.Inc()
	s.logf("campaign %s submitted: grid [%d,%d), %d chunk(s)", id, base, base+total, table.NumChunks())
	return c, nil
}

// openSinks opens the campaign's results and quarantine files: fresh, or
// — resuming a merged prefix, whose torn trailing lines ReadMergedPrefix
// already cut — both in append mode, with the merged bytes loaded into
// the in-memory mirrors so the results endpoint sees the full stream.
// The CSV header is written with the first row, so it is still pending
// exactly when the results file is empty (an all-quarantined prefix).
func (c *serviceCampaign) openSinks(resumed bool) error {
	mode := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	if resumed {
		mode = os.O_CREATE | os.O_WRONLY | os.O_APPEND
		for path, mirror := range map[string]*[]byte{c.files.Results: &c.mem, c.files.Quarantine: &c.memQ} {
			data, err := os.ReadFile(path)
			if err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("fabric: campaign %s: %w", c.id, err)
			}
			*mirror = data
		}
	}
	rf, err := os.OpenFile(c.files.Results, mode, 0o644)
	if err != nil {
		return fmt.Errorf("fabric: campaign %s results: %w", c.id, err)
	}
	qf, err := os.OpenFile(c.files.Quarantine, mode, 0o644)
	if err != nil {
		rf.Close()
		return fmt.Errorf("fabric: campaign %s quarantine: %w", c.id, err)
	}
	c.results, c.quarantine = rf, qf
	c.headerPending = len(c.mem) == 0
	return nil
}

func (c *serviceCampaign) closeSinks() {
	c.results.Close()
	c.quarantine.Close()
}

// stateLocked computes the campaign's lifecycle state; Service.mu held.
func (c *serviceCampaign) stateLocked() string {
	switch {
	case c.cancelled:
		return StateCancelled
	case c.failedErr != nil:
		return StateFailed
	case c.table.Done():
		return StateDone
	case c.started:
		return StateRunning
	default:
		return StateQueued
	}
}

// active reports whether the scheduler should still hand out this
// campaign's ranges; Service.mu held.
func (c *serviceCampaign) activeLocked() bool {
	return !c.cancelled && c.failedErr == nil && !c.table.Done()
}

// statusLocked renders the campaign's control-plane document.
func (c *serviceCampaign) statusLocked() CampaignStatus {
	st := CampaignStatus{
		ID: c.id, Name: c.name, State: c.stateLocked(),
		Base: c.base, Total: c.total,
		Merged: c.merged, Failures: c.failures,
		Chunks: c.table.NumChunks(), ChunksDone: c.table.DoneChunks(),
		SubmittedSeq: c.seq,
	}
	if c.failedErr != nil {
		st.Error = c.failedErr.Error()
	}
	return st
}

// resultsView is a campaign's results snapshot: its state and the
// prefixes of the merged mirrors at one frontier release.
type resultsView struct {
	state           string
	merged          int
	csv, quarantine []byte
}

// publishLocked refreshes the campaign's atomic results snapshot and its
// on-disk status document. Service.mu held. The snapshot is the results
// endpoint's ONLY data source; it carries what the frontier has durably
// released, never in-flight worker state.
func (s *Service) publishLocked(c *serviceCampaign) {
	st := c.statusLocked()
	c.snapshot.Store(&resultsView{state: st.State, merged: c.merged, csv: c.mem, quarantine: c.memQ})
	if err := writeStatusDoc(c.files.Status, st); err != nil {
		s.logf("campaign %s: status doc: %v", c.id, err)
	}
}

// writeStatusDoc atomically replaces a campaign's status document
// (temp file + rename), so readers never observe a torn write.
func writeStatusDoc(path string, st CampaignStatus) error {
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ---- scheduler -----------------------------------------------------

// acquire hands the worker a lease from the oldest campaign that is
// both active and under the fairness cap; if every candidate is capped
// (or capping would idle the worker), a second pass ignores the cap —
// the scheduler is work-conserving, the cap only shapes preference.
func (s *Service) acquire(workerID string) (c *serviceCampaign, lease Lease, status AcquireStatus) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, Lease{}, AcquireDraining
	}
	actives := make([]*serviceCampaign, 0, len(s.order))
	terminal := 0
	for _, id := range s.order {
		sc := s.campaigns[id]
		if sc.activeLocked() {
			actives = append(actives, sc)
		} else {
			terminal++
		}
	}
	finishWhenDone := s.opts.FinishWhenDone
	s.mu.Unlock()

	if len(actives) == 0 {
		if finishWhenDone && terminal > 0 {
			return nil, Lease{}, AcquireDone
		}
		// The queue is empty *right now*, but new campaigns may arrive
		// any moment — keep the fleet polling.
		return nil, Lease{}, AcquireEmpty
	}
	// Pass 1: oldest-first, honoring the fairness cap.
	for _, sc := range actives {
		_, leased, _ := sc.table.Stats()
		if leased >= s.opts.FairnessCap {
			continue
		}
		if l, st := sc.table.Acquire(workerID); st == AcquireGranted {
			return sc, l, AcquireGranted
		}
	}
	// Pass 2: ignore the cap rather than idle the worker.
	for _, sc := range actives {
		if l, st := sc.table.Acquire(workerID); st == AcquireGranted {
			return sc, l, AcquireGranted
		}
	}
	return nil, Lease{}, AcquireEmpty
}

// ---- campaign control ----------------------------------------------

// Cancel stops a campaign: nothing new is granted for it, its workers
// are told to abandon their leases on the next renew, and any late
// completion is rejected idempotently with stale:true. Already-merged
// records stay durable. Cancelling a terminal campaign reports ok=false
// with its unchanged state.
func (s *Service) Cancel(id string) (CancelResponse, bool) {
	s.mu.Lock()
	c, ok := s.campaigns[id]
	if !ok {
		s.mu.Unlock()
		return CancelResponse{}, false
	}
	state := c.stateLocked()
	if state == StateDone || state == StateFailed || state == StateCancelled {
		s.mu.Unlock()
		return CancelResponse{OK: false, State: state}, true
	}
	c.cancelled = true
	c.table.Drain()
	s.publishLocked(c)
	s.mu.Unlock()
	s.finished.Inc()
	s.logf("campaign %s cancelled", id)
	return CancelResponse{OK: true, State: StateCancelled}, true
}

// CampaignStatusByID returns one campaign's control-plane document.
func (s *Service) CampaignStatusByID(id string) (CampaignStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	if !ok {
		return CampaignStatus{}, false
	}
	return c.statusLocked(), true
}

// ListCampaigns returns every campaign's status in submission order.
func (s *Service) ListCampaigns() []CampaignStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]CampaignStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.campaigns[id].statusLocked())
	}
	return out
}

// Results returns a campaign's merged-output snapshot. The view was
// swapped in whole at the last frontier release, so it is always a
// grid-ordered durable prefix — never a peek at worker state. The
// strings are copied here, on request, rather than at every release.
func (s *Service) Results(id string) (*CampaignResultsResponse, bool) {
	s.mu.Lock()
	c, ok := s.campaigns[id]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	v := c.snapshot.Load()
	return &CampaignResultsResponse{
		CampaignID: c.id,
		State:      v.state,
		Merged:     v.merged,
		Total:      c.total,
		CSV:        string(v.csv),
		Quarantine: string(v.quarantine),
	}, true
}

// failCampaign records a campaign-fatal error. With FinishWhenDone
// (`serve -config`) the campaign's failure is the service's failure;
// otherwise the service keeps serving the other campaigns.
func (s *Service) failCampaign(c *serviceCampaign, err error) {
	s.mu.Lock()
	fresh := c.failedErr == nil && !c.cancelled
	if fresh {
		c.failedErr = err
		s.publishLocked(c)
	}
	s.mu.Unlock()
	c.table.Drain()
	if fresh {
		s.finished.Inc()
		s.logf("campaign %s failed: %v", c.id, err)
	}
	if s.opts.FinishWhenDone {
		s.fail(err)
	}
}

// fail records a service-fatal error and stops the run.
func (s *Service) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.draining = true
	s.mu.Unlock()
	s.finish(err)
}

// finish closes every campaign's sinks and releases Wait exactly once.
func (s *Service) finish(err error) {
	s.doneOnce.Do(func() {
		s.mu.Lock()
		if s.err == nil {
			s.err = err
		}
		for _, id := range s.order {
			s.campaigns[id].closeSinks()
		}
		s.mu.Unlock()
		close(s.doneCh)
	})
}

// Drain switches the service to draining mode: outstanding leases may
// finish and report, nothing new is granted or accepted for submission,
// and Wait returns once every table is idle. Queued and half-done
// campaigns stay resumable — their configs and merged prefixes are on
// disk.
func (s *Service) Drain() {
	s.mu.Lock()
	s.draining = true
	for _, c := range s.campaigns {
		c.table.Drain()
	}
	s.mu.Unlock()
	s.logf("draining: finishing leased ranges, leasing nothing new")
}

// drainingNow reports the drain flag.
func (s *Service) drainingNow() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// allTerminal reports whether every campaign reached a terminal state
// (and at least one campaign exists).
func (s *Service) allTerminal() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.order) == 0 {
		return false
	}
	for _, id := range s.order {
		if s.campaigns[id].activeLocked() {
			return false
		}
	}
	return true
}

// idle reports whether no active campaign holds a leased chunk — the
// drain exit condition. Cancelled/failed campaigns are skipped: their
// abandoned leases expire on their own and nothing will merge them.
func (s *Service) idle() bool {
	s.mu.Lock()
	tables := make([]*LeaseTable, 0, len(s.order))
	for _, id := range s.order {
		c := s.campaigns[id]
		if !c.cancelled && c.failedErr == nil {
			tables = append(tables, c.table)
		}
	}
	s.mu.Unlock()
	for _, t := range tables {
		if !t.Idle() {
			return false
		}
	}
	return true
}

// completionError distinguishes "everything complete" (nil) from
// "drained early" at shutdown; a recorded fatal error wins, then the
// first failed campaign's error in FinishWhenDone mode.
func (s *Service) completionError() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	merged, total, incomplete := 0, 0, 0
	var firstFailed error
	for _, id := range s.order {
		c := s.campaigns[id]
		merged += c.merged
		total += c.total
		if c.failedErr != nil && firstFailed == nil {
			firstFailed = c.failedErr
		}
		if c.activeLocked() {
			incomplete++
		}
	}
	if s.opts.FinishWhenDone && firstFailed != nil {
		return firstFailed
	}
	if incomplete > 0 {
		return fmt.Errorf("%w: %d/%d grid points merged", ErrDrained, merged, total)
	}
	return nil
}

// Wait blocks until the run completes (FinishWhenDone), a fatal error
// occurs, or — after ctx is canceled — the drain finishes. It owns the
// liveness sweeper.
func (s *Service) Wait(ctx context.Context) error {
	sweep := time.NewTicker(s.sweepInterval())
	defer sweep.Stop()
	// A service constructed over already-complete campaigns (a resume of
	// a finished grid) has nothing to wait for.
	if s.opts.FinishWhenDone && s.allTerminal() {
		s.finish(s.completionError())
	}
	ctxDone := ctx.Done()
	for {
		select {
		case <-s.doneCh:
			return s.runError()
		case <-ctxDone:
			ctxDone = nil // handled; don't spin on the closed channel
			s.Drain()
			if s.idle() {
				s.finish(s.completionError())
			}
		case <-sweep.C:
			expired := 0
			s.mu.Lock()
			tables := make([]*LeaseTable, 0, len(s.order))
			for _, id := range s.order {
				tables = append(tables, s.campaigns[id].table)
			}
			s.mu.Unlock()
			for _, t := range tables {
				expired += t.Sweep()
			}
			if expired > 0 {
				s.logf("expired %d lease(s); ranges return to the pool", expired)
			}
			s.updateLiveness()
			if s.opts.FinishWhenDone && s.allTerminal() {
				s.finish(s.completionError())
			}
			if s.drainingNow() && s.idle() {
				s.finish(s.completionError())
			}
		}
	}
}

func (s *Service) runError() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// sweepInterval is a quarter of the TTL, clamped to stay responsive for
// the short TTLs tests use without busy-looping for long ones.
func (s *Service) sweepInterval() time.Duration {
	iv := s.opts.LeaseTTL / 4
	if iv < 10*time.Millisecond {
		iv = 10 * time.Millisecond
	}
	if iv > 5*time.Second {
		iv = 5 * time.Second
	}
	return iv
}

// updateLiveness refreshes the workers-live gauge.
func (s *Service) updateLiveness() {
	now := s.now()
	s.mu.Lock()
	live := int64(0)
	for _, w := range s.workers {
		if w.live(now, s.opts.LeaseTTL) {
			live++
		}
	}
	s.mu.Unlock()
	s.workersLive.Set(live)
}

// touchWorker stamps a worker's liveness; unknown IDs are ignored.
func (s *Service) touchWorker(id string) {
	s.mu.Lock()
	if w, ok := s.workers[id]; ok {
		w.lastSeen = s.now()
	}
	s.mu.Unlock()
}

// writeEnd answers a worker with an end-of-run response and only then
// records that it was told: Linger may return, and the server close, as
// soon as the record is set, so the response must be on the wire first.
func (s *Service) writeEnd(w http.ResponseWriter, workerID string, v any) {
	writeJSON(w, v)
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	s.mu.Lock()
	if wi, ok := s.workers[workerID]; ok {
		wi.notifiedEnd = true
	}
	s.mu.Unlock()
}

// Linger blocks until every live registered worker has been told the run
// is over, so a clean finish never looks like a dead coordinator on a
// worker's side. Call after Wait, before tearing down the HTTP server.
// Liveness follows each worker's own promise (see workerInfo.live), not a
// fixed bound: a worker told to poll again in RetryMS is waited for until
// one TTL past that poll, and a worker that stops calling stops counting
// after it.
func (s *Service) Linger() {
	ticker := time.NewTicker(25 * time.Millisecond)
	defer ticker.Stop()
	for s.unnotifiedLive() > 0 {
		<-ticker.C
	}
}

// unnotifiedLive counts the live workers not yet told the run is over.
func (s *Service) unnotifiedLive() int {
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	pending := 0
	for _, w := range s.workers {
		if !w.notifiedEnd && w.live(now, s.opts.LeaseTTL) {
			pending++
		}
	}
	return pending
}

// ---- worker data-plane handlers ------------------------------------

// readBody slurps a protocol request under the message size cap.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxMessageBytes))
	if err != nil {
		http.Error(w, "fabric: oversized or unreadable body", http.StatusBadRequest)
		return nil, false
	}
	return data, true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The client will see a truncated body and retry.
		return
	}
}

func (s *Service) handleRegister(w http.ResponseWriter, r *http.Request) {
	data, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeRegisterRequest(data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	s.nextWID++
	id := "w" + strconv.Itoa(s.nextWID)
	s.workers[id] = &workerInfo{host: req.Host, pid: req.PID, lastSeen: s.now()}
	s.mu.Unlock()
	s.workersSeen.Inc()
	s.logf("worker %s registered (host=%s pid=%d)", id, req.Host, req.PID)
	writeJSON(w, RegisterResponse{
		Version:    ProtocolVersion,
		WorkerID:   id,
		LeaseTTLMS: s.opts.LeaseTTL.Milliseconds(),
	})
}

func (s *Service) handleLease(w http.ResponseWriter, r *http.Request) {
	data, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeLeaseRequest(data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.touchWorker(req.WorkerID)
	c, lease, status := s.acquire(req.WorkerID)
	switch status {
	case AcquireGranted:
		s.mu.Lock()
		if !c.started {
			c.started = true
			s.publishLocked(c)
		}
		s.mu.Unlock()
		resp := LeaseResponse{
			Granted: true, Campaign: c.id,
			Chunk: lease.Chunk, From: lease.From, To: lease.To, Gen: lease.Gen,
		}
		known := false
		for _, id := range req.Known {
			if id == c.id {
				known = true
				break
			}
		}
		if !known {
			resp.Config = json.RawMessage(c.configJSON)
		}
		s.logf("leased %s chunk %d [%d,%d) gen %d to %s", c.id, lease.Chunk, lease.From, lease.To, lease.Gen, req.WorkerID)
		writeJSON(w, resp)
	case AcquireDone:
		s.writeEnd(w, req.WorkerID, LeaseResponse{Done: true})
	case AcquireDraining:
		s.writeEnd(w, req.WorkerID, LeaseResponse{Draining: true})
	default: // AcquireEmpty: leases may expire, campaigns may arrive.
		retry := s.opts.LeaseTTL / 2
		s.mu.Lock()
		if wi, ok := s.workers[req.WorkerID]; ok {
			wi.retry = retry
		}
		s.mu.Unlock()
		writeJSON(w, LeaseResponse{RetryMS: retry.Milliseconds()})
	}
}

// campaignByID resolves a campaign reference from a worker message.
func (s *Service) campaignByID(id string) (*serviceCampaign, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	return c, ok
}

func (s *Service) handleReport(w http.ResponseWriter, r *http.Request) {
	data, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeReportRequest(data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.touchWorker(req.WorkerID)
	c, ok := s.campaignByID(req.Campaign)
	if !ok {
		http.Error(w, fmt.Sprintf("fabric: unknown campaign %q", req.Campaign), http.StatusBadRequest)
		return
	}
	draining := s.drainingNow()
	s.mu.Lock()
	dead := c.cancelled || c.failedErr != nil
	s.mu.Unlock()
	if dead {
		// Cancelled/failed campaign: the range will never be merged.
		writeJSON(w, ReportResponse{OK: false, Cancel: true, Draining: draining})
		return
	}
	if err := c.table.Renew(req.WorkerID, req.Chunk, req.Gen); err != nil {
		// The lease is gone; tell the worker to abandon the range.
		writeJSON(w, ReportResponse{OK: false, Cancel: true, Draining: draining})
		return
	}
	writeJSON(w, ReportResponse{OK: true, Draining: draining})
}

// verifyCoverage checks that rows and failures partition [from, to):
// each sorted strictly ascending, union exactly the interval.
func verifyCoverage(from, to int, rows []ResultRow, failures []FailureRow) error {
	ri, fi := 0, 0
	for nr := from; nr < to; nr++ {
		switch {
		case ri < len(rows) && rows[ri].Nr == nr:
			if fi < len(failures) && failures[fi].Nr == nr {
				return fmt.Errorf("%w: expNr %d present as both result and failure", ErrProtocol, nr)
			}
			ri++
		case fi < len(failures) && failures[fi].Nr == nr:
			fi++
		default:
			return fmt.Errorf("%w: completion of [%d,%d) is missing expNr %d", ErrProtocol, from, to, nr)
		}
	}
	if ri != len(rows) || fi != len(failures) {
		return fmt.Errorf("%w: completion of [%d,%d) carries expNrs outside the range", ErrProtocol, from, to)
	}
	return nil
}

func (s *Service) handleComplete(w http.ResponseWriter, r *http.Request) {
	data, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeCompleteRequest(data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.touchWorker(req.WorkerID)
	c, ok := s.campaignByID(req.Campaign)
	if !ok {
		http.Error(w, fmt.Sprintf("fabric: unknown campaign %q", req.Campaign), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	dead := c.cancelled || c.failedErr != nil
	s.mu.Unlock()
	if dead {
		// The campaign was cancelled (or failed) while the worker ran:
		// reject the late completion idempotently — same contract as a
		// superseded generation.
		s.logf("rejected completion of cancelled %s chunk %d from %s", c.id, req.Chunk, req.WorkerID)
		s.writeComplete(w, req.WorkerID, CompleteResponse{OK: false, Stale: true})
		return
	}

	from, to, err := c.table.Bounds(req.Chunk)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Verify the payload before touching the lease: every expNr in
	// [from, to) exactly once, as a result row or a quarantine record,
	// and every row exactly the line the campaign's schema writes for
	// it. A worker shipping garbage must not consume the lease.
	if err := verifyCoverage(from, to, req.Rows, req.Failures); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	for _, row := range req.Rows {
		if err := analysis.CheckCSVRow(row.Line, c.matrix, row.Nr); err != nil {
			http.Error(w, fmt.Sprintf("%v: %v", ErrProtocol, err), http.StatusBadRequest)
			return
		}
	}
	if err := c.table.Complete(req.WorkerID, req.Chunk, req.Gen); err != nil {
		// Late completion from a presumed-dead worker: the range was (or
		// will be) re-executed elsewhere. Discard idempotently.
		s.logf("rejected stale completion of %s chunk %d gen %d from %s", c.id, req.Chunk, req.Gen, req.WorkerID)
		s.writeComplete(w, req.WorkerID, CompleteResponse{OK: false, Stale: true})
		return
	}

	s.mu.Lock()
	c.buffered[req.Chunk] = chunkPayload{rows: req.Rows, failures: req.Failures}
	c.failures += len(req.Failures)
	overBudget := c.maxFailures >= 0 && c.failures > c.maxFailures
	werr := s.releaseLocked(c)
	campaignDone := c.table.Done()
	if werr == nil {
		s.publishLocked(c)
	}
	s.mu.Unlock()
	if werr != nil {
		s.failCampaign(c, werr)
		http.Error(w, werr.Error(), http.StatusInternalServerError)
		return
	}
	s.writeComplete(w, req.WorkerID, CompleteResponse{OK: true})
	if overBudget {
		// The triggering records are already merged and durable; stop
		// granting this campaign's work and surface the budget error,
		// mirroring the runner's ErrFailureBudget semantics.
		s.failCampaign(c, fmt.Errorf("%w: %d persistent failure(s) over budget %d",
			runner.ErrFailureBudget, c.failures, c.maxFailures))
		return
	}
	if campaignDone {
		s.finished.Inc()
		s.logf("campaign %s complete: %d grid points merged (%d quarantined)", c.id, c.merged, c.failures)
		if s.opts.FinishWhenDone && s.allTerminal() {
			s.finish(s.completionError())
		}
	}
}

// writeComplete answers a completion, telling the worker the run is over
// when it is.
func (s *Service) writeComplete(w http.ResponseWriter, workerID string, resp CompleteResponse) {
	resp.Done = s.finishedDone()
	if resp.Done {
		s.writeEnd(w, workerID, resp)
		return
	}
	writeJSON(w, resp)
}

// finishedDone reports whether the whole service is finishing: every
// campaign terminal AND the run configured to end then. Otherwise the
// service keeps running (new submissions may arrive), so workers are
// never told Done — they exit on Draining at shutdown instead.
func (s *Service) finishedDone() bool {
	return s.opts.FinishWhenDone && s.allTerminal()
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	now := s.now()
	s.mu.Lock()
	st := StatusResponse{Version: ProtocolVersion, Draining: s.draining}
	for _, id := range s.order {
		c := s.campaigns[id]
		st.Total += c.total
		st.Merged += c.merged
		st.Chunks += c.table.NumChunks()
		st.ChunksDone += c.table.DoneChunks()
		st.Campaigns = append(st.Campaigns, c.statusLocked())
	}
	ids := make([]string, 0, len(s.workers))
	for id := range s.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		wi := s.workers[id]
		st.Workers = append(st.Workers, WorkerStatus{
			ID: id, Host: wi.host, PID: wi.pid,
			LastSeenUnix: wi.lastSeen.Unix(),
			Live:         wi.live(now, s.opts.LeaseTTL),
		})
	}
	s.mu.Unlock()
	writeJSON(w, st)
}

// ---- campaigns control-plane handlers ------------------------------

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	data, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeSubmitRequest(data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	resp, err := s.Submit(req.Name, req.Config)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, resp)
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, CampaignListResponse{Version: ProtocolVersion, Campaigns: s.ListCampaigns()})
}

func (s *Service) handleCampaignStatus(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	st, ok := s.CampaignStatusByID(id)
	if !ok {
		http.Error(w, fmt.Sprintf("fabric: unknown campaign %q", id), http.StatusNotFound)
		return
	}
	writeJSON(w, st)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	data, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeCancelRequest(data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	resp, found := s.Cancel(req.CampaignID)
	if !found {
		http.Error(w, fmt.Sprintf("fabric: unknown campaign %q", req.CampaignID), http.StatusNotFound)
		return
	}
	writeJSON(w, resp)
}

func (s *Service) handleResults(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	snap, ok := s.Results(id)
	if !ok {
		http.Error(w, fmt.Sprintf("fabric: unknown campaign %q", id), http.StatusNotFound)
		return
	}
	writeJSON(w, snap)
}

// ---- merge frontier ------------------------------------------------

// releaseLocked appends every buffered chunk at the campaign's frontier
// in chunk order: its result lines to the results file, its failure
// records to the quarantine file, each list already sorted by expNr and
// in its exact sequential encoding. The CSV header goes out with the
// first row. The caller holds s.mu.
func (s *Service) releaseLocked(c *serviceCampaign) error {
	for {
		payload, ok := c.buffered[c.nextChunk]
		if !ok {
			return nil
		}
		delete(c.buffered, c.nextChunk)
		if len(payload.rows) > 0 {
			start := len(c.mem)
			if c.headerPending {
				c.mem = analysis.AppendCSVHeader(c.mem, c.matrix)
			}
			for _, row := range payload.rows {
				c.mem = append(c.mem, row.Line...)
			}
			if _, err := c.results.Write(c.mem[start:]); err != nil {
				c.mem = c.mem[:start]
				return fmt.Errorf("fabric: results write: %w", err)
			}
			c.headerPending = false
		}
		if len(payload.failures) > 0 {
			start := len(c.memQ)
			for _, f := range payload.failures {
				c.memQ = append(append(c.memQ, f.Record...), '\n')
			}
			if _, err := c.quarantine.Write(c.memQ[start:]); err != nil {
				c.memQ = c.memQ[:start]
				return fmt.Errorf("fabric: quarantine write: %w", err)
			}
		}
		c.merged += len(payload.rows) + len(payload.failures)
		c.rowsMerged.Add(uint64(len(payload.rows)))
		s.rowsMerged.Add(uint64(len(payload.rows)))
		c.failuresMerged.Add(uint64(len(payload.failures)))
		s.failuresMerged.Add(uint64(len(payload.failures)))
		c.nextChunk++
	}
}
