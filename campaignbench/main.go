// Command campaignbench measures whole campaigns of the paper's Table II
// delay grid on the program's production paths: the checkpoint-trie
// runner, the runner with early exit, and the fabric service with one
// worker. It builds its inputs from a seed, runs campaigns back to back
// for a set time, checks every output, and prints one JSON line of
// metrics. With -trace 1 it instead runs traced campaigns and reports the
// per-layer metrics. See README.md for the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash campaignbench/run.sh --workload delay-trie --seed 1 --seconds 30 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"comfase/internal/config"
	"comfase/internal/fabric"
)

// minSetups is the least number of set-up samples whose median is
// setup_s; runs with fewer campaigns add set-up-only runs.
const minSetups = 15

// runDeadline bounds a whole invocation.
const runDeadline = 170 * time.Second

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last line of output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: delay-trie, delay-early-exit or delay-fabric")
	seed := flag.Int64("seed", 1, "workload seed: picks the start times and the engine seed")
	seconds := flag.Float64("seconds", 30, "how long to run campaigns back to back")
	traceFlag := flag.Int("trace", 0, "1 runs traced campaigns and reports per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for scratch files and the span log")
	flag.Parse()
	traced := *traceFlag == 1
	if traced {
		// Sample allocations finely enough for per-layer shares.
		runtime.MemProfileRate = 64 << 10
	}
	runtime.GOMAXPROCS(min(runnerWorkers, runtime.NumCPU()))

	w, err := lookupWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fatal(err)
	}
	b := bench{
		w:       w,
		s:       newSlice(*seed, defaultGroups),
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		dir:     dir,
	}
	if traced {
		b.spanLog = filepath.Join(*workdir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, *seed))
	}
	// A run takes about --seconds plus the output checks; the deadline
	// turns a hung program into an error well inside the 180 s a run may
	// take.
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	rep, err := b.run(ctx, traced)
	cancel()
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "campaignbench:", err)
	os.Exit(2)
}

// bench is one invocation: a workload, its slice and the run length.
type bench struct {
	w       workload
	s       slice
	seed    int64
	seconds time.Duration
	dir     string
	spanLog string // where the traced run writes its spans ("" = nowhere)
}

func (b *bench) run(ctx context.Context, traced bool) (report, error) {
	cfg, err := b.s.configJSON(b.w.earlyExit)
	if err != nil {
		return report{}, err
	}
	var (
		metrics   map[string]float64
		campaigns []campaign
	)
	if traced {
		metrics, campaigns, err = b.traced(ctx, cfg)
	} else {
		metrics, campaigns, err = b.untraced(ctx, cfg)
	}
	if err != nil {
		return report{}, err
	}
	v, err := b.check(ctx, cfg, campaigns)
	if err != nil {
		return report{}, err
	}
	units := endToEndUnits
	if traced {
		units = perLayerUnits()
	}
	rep := report{
		Correct:   v.failed() == 0,
		Attempted: v.attempted,
		Failed:    v.failed(),
		Metrics:   map[string]metricValue{},
	}
	for name, unit := range units {
		val, ok := metrics[name]
		if !ok {
			return report{}, fmt.Errorf("metric %s was not measured", name)
		}
		rep.Metrics[name] = metricValue{Value: val, Unit: unit}
	}
	b.summarise(rep, v)
	return rep, nil
}

// check runs every output check outside the timed window.
func (b *bench) check(ctx context.Context, cfg []byte, cs []campaign) (*verdict, error) {
	v := &verdict{}
	n := b.s.size()
	checkCampaigns(v, cs, n)
	if err := checkFresh(ctx, v, cfg, cs[0].csv, b.seed); err != nil {
		return nil, err
	}
	if err := checkAcrossWorkloads(ctx, v, b.w, b.s, cs[0].csv, b.dir); err != nil {
		return nil, err
	}
	return v, nil
}

// summarise prints a readable table and the check notes on stderr.
func (b *bench) summarise(rep report, v *verdict) {
	fmt.Fprintf(os.Stderr, "campaignbench %s seed %d: %d groups x %d grid points, starts %v\n",
		b.w.name, b.seed, len(b.s.Starts), b.s.groupSize(), b.s.Starts)
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Fprintf(os.Stderr, "  %-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	ratio := float64(rep.Failed) / float64(max(rep.Attempted, 1))
	fmt.Fprintf(os.Stderr, "  %-34s %14.6g (quarantined %d, missing %d, mismatched %d of %d attempted)\n",
		"failure_ratio", ratio, v.quarantined, v.missing, len(v.mismatched), rep.Attempted)
	for _, note := range v.notes {
		fmt.Fprintln(os.Stderr, "  mismatch:", note)
	}
}

// untraced runs campaigns back to back with tracing off and reports the
// end-to-end metrics as medians over the campaigns. The reference load
// runs before the first campaign and after each one, and every timing is
// corrected for steal and for the mean of the two host-speed readings
// around it (see reference.go).
func (b *bench) untraced(ctx context.Context, cfg []byte) (map[string]float64, []campaign, error) {
	n := float64(b.s.size())
	var (
		cs                                   []campaign
		setups, rates, cpuMs, allocs, allocB []float64
		rawRates, slowdowns                  []float64
	)
	readHostSpeed() // warm-up: the first reading pays for cold caches
	prev := readHostSpeed()
	began := time.Now()
	for b.more(began, len(cs)) {
		runtime.GC()
		c, err := runCampaign(ctx, b.w, cfg, b.dir, nil, false)
		if err != nil {
			return nil, nil, fmt.Errorf("%s campaign: %w", b.w.name, err)
		}
		next := readHostSpeed()
		host := prev.mean(next)
		prev = next
		cs = append(cs, c)
		setups = append(setups, host.nominal(c.setup).Seconds())
		rawRates = append(rawRates, n/c.wall().Seconds())
		slowdowns = append(slowdowns, float64(host))
		rates = append(rates, n/host.nominal(c.available()).Seconds())
		cpuMs = append(cpuMs, host.nominal(c.cpu()).Seconds()*1000/n)
		allocs = append(allocs, float64(c.end.mallocs-c.start.mallocs)/n)
		allocB = append(allocB, float64(c.end.bytes-c.start.bytes)/n)
	}
	peak := peakRSSMB()
	fmt.Fprintf(os.Stderr, "%s: %d campaigns\n  experiments/s as measured %.1f\n  host slowdown %.3f\n  experiments/s corrected %.1f\n",
		b.w.name, len(cs), rawRates, slowdowns, rates)
	more, err := b.setupSamples(ctx, cfg, minSetups-len(setups), prev)
	if err != nil {
		return nil, nil, err
	}
	return map[string]float64{
		"experiments_per_s":          median(rates),
		"setup_s":                    median(append(setups, more...)),
		"cpu_ms_per_experiment":      median(cpuMs),
		"allocs_per_experiment":      median(allocs),
		"alloc_bytes_per_experiment": median(allocB),
		"peak_rss_mb":                peak,
	}, cs, nil
}

// more reports whether to start another campaign (or traced pair): always
// the first, then while the run would end closer to b.seconds with one
// more than without it.
func (b *bench) more(began time.Time, done int) bool {
	if done == 0 {
		return true
	}
	elapsed := time.Since(began)
	return elapsed+elapsed/time.Duration(2*done) < b.seconds
}

// setupSamples runs set-up alone k times, each corrected for the mean of
// the host-speed readings around the k runs; prev is the reading taken
// just before.
func (b *bench) setupSamples(ctx context.Context, cfg []byte, k int, prev hostSpeed) ([]float64, error) {
	var raw []time.Duration
	for i := 0; i < k; i++ {
		runtime.GC()
		c, err := runCampaign(ctx, b.w, cfg, b.dir, nil, true)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", b.w.name, err)
		}
		raw = append(raw, c.setup)
	}
	if len(raw) == 0 {
		return nil, nil
	}
	host := prev.mean(readHostSpeed())
	out := make([]float64, len(raw))
	for i, d := range raw {
		out[i] = host.nominal(d).Seconds()
	}
	return out, nil
}

// traced alternates untraced and traced campaigns for the run time (at
// least one of each). Traced campaigns publish the program's counters to
// an obs registry, record spans at every public call the benchmark makes,
// and run under the CPU and allocation profilers. Per-layer metrics are
// medians over the traced campaigns; layer shares pool their samples.
func (b *bench) traced(ctx context.Context, cfg []byte) (map[string]float64, []campaign, error) {
	out, err := b.setupSpans(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	var (
		cs                   []campaign
		plainWall, traceWall []float64
		slowdowns            []float64
		stolen, walls        time.Duration
		perCampaign          []map[string]float64
		cpuSamples           []stackSample
		allocSamples         []stackSample
	)
	readHostSpeed() // warm-up, as in the untraced run
	began := time.Now()
	for b.more(began, len(perCampaign)) {
		slowdowns = append(slowdowns, float64(readHostSpeed()))
		runtime.GC()
		plain, err := runCampaign(ctx, b.w, cfg, b.dir, nil, false)
		if err != nil {
			return nil, nil, fmt.Errorf("%s campaign: %w", b.w.name, err)
		}
		cs = append(cs, plain)
		plainWall = append(plainWall, plain.wall().Seconds())
		stolen += plain.wall() - plain.available()
		walls += plain.wall()

		tr := newTracer(fmt.Sprintf("campaign-%d", len(perCampaign)+1))
		before, err := allocProfile()
		if err != nil {
			return nil, nil, err
		}
		var cpuProf bytes.Buffer
		if err := pprof.StartCPUProfile(&cpuProf); err != nil {
			return nil, nil, err
		}
		c, err := runCampaign(ctx, b.w, cfg, b.dir, tr, false)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, nil, fmt.Errorf("%s traced campaign: %w", b.w.name, err)
		}
		after, err := allocProfile()
		if err != nil {
			return nil, nil, err
		}
		cs = append(cs, c)
		traceWall = append(traceWall, c.wall().Seconds())
		cpu, err := parseProfile(cpuProf.Bytes(), "cpu")
		if err != nil {
			return nil, nil, err
		}
		cpuSamples = append(cpuSamples, cpu...)
		allocSamples = append(allocSamples, allocDelta(before, after)...)
		m, err := b.layerMetrics(cfg, c, tr)
		if err != nil {
			return nil, nil, err
		}
		perCampaign = append(perCampaign, m)
		if b.spanLog != "" {
			if err := tr.writeJSONL(b.spanLog, false); err != nil {
				return nil, nil, err
			}
		}
	}
	for name := range perCampaign[0] {
		var xs []float64
		for _, m := range perCampaign {
			xs = append(xs, m[name])
		}
		out[name] = median(xs)
	}
	for kind, samples := range map[string][]stackSample{"cpu_share": cpuSamples, "alloc_share": allocSamples} {
		totals := layerTotals(samples, kind == "alloc_share")
		var sum int64
		for _, v := range totals {
			sum += v
		}
		for layer, v := range totals {
			share := 0.0
			if sum > 0 {
				share = float64(v) / float64(sum)
			}
			out[layer+"."+kind] = share
		}
	}
	out["bench.tracing_overhead"] = median(traceWall)/median(plainWall) - 1
	out["bench.host_slowdown"] = median(slowdowns)
	out["bench.steal_share"] = stolen.Seconds() / walls.Seconds()
	return out, cs, nil
}

// setupSpans times engine build and golden run on their own, several
// times, and reports their medians. On the fabric path the production
// executor makes the same two calls inside its first (priming) Execute.
func (b *bench) setupSpans(ctx context.Context, cfg []byte) (map[string]float64, error) {
	parsed, err := config.Parse(bytes.NewReader(cfg))
	if err != nil {
		return nil, err
	}
	tr := newTracer("setup")
	for i := 0; i < minSetups; i++ {
		runtime.GC()
		eng, err := buildEngine(parsed.Engine, tr, "setup", 0)
		if err != nil {
			return nil, err
		}
		if err := tr.do("setup", "core.Engine.EnsureGolden", 0, func() error { return eng.EnsureGolden(ctx) }); err != nil {
			return nil, err
		}
	}
	if b.spanLog != "" {
		if err := tr.writeJSONL(b.spanLog, true); err != nil {
			return nil, err
		}
	}
	return map[string]float64{
		"core.engine_build_s": median(tr.durations("core.NewEngine")),
		"core.golden_s":       median(tr.durations("core.Engine.EnsureGolden")),
	}, nil
}

// allocProfile captures the cumulative allocation profile. Two
// collections first make it current: the runtime publishes allocation
// records one cycle late.
func allocProfile() ([]stackSample, error) {
	runtime.GC()
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	return parseProfile(buf.Bytes(), "alloc_space")
}

// layerMetrics derives one traced campaign's per-layer metrics from the
// program's counters and the benchmark's spans.
func (b *bench) layerMetrics(cfg []byte, c campaign, tr *tracer) (map[string]float64, error) {
	parsed, err := config.Parse(bytes.NewReader(cfg))
	if err != nil {
		return nil, err
	}
	n := float64(b.s.size())
	wall, cpu := c.wall().Seconds(), c.cpu().Seconds()
	events := tr.counter("kernel.events_executed")
	trieSaved := tr.counter("engine.trie_sim_millis_saved") / 1000
	earlySaved := tr.counter("engine.early_exit_sim_millis_saved") / 1000
	simulated := plannedSimSeconds(parsed, c.leases) - trieSaved - earlySaved
	runS := tr.total("runner.Runner.Run").Seconds()
	if b.w.fabric {
		runS = tr.total("fabric.Executor.Execute").Seconds()
	}
	var wire int64
	for _, s := range tr.named("fabric.rtt ") {
		wire += s.Bytes
	}
	ms := func(xs []float64, q float64) float64 { return quantile(xs, q) * 1000 }
	leaseRTT := tr.durations("fabric.rtt " + fabric.PathLease)
	completeRTT := tr.durations("fabric.rtt " + fabric.PathComplete)
	nsPerEvent := 0.0
	if events > 0 {
		nsPerEvent = cpu * 1e9 / events
	}
	return map[string]float64{
		"core.experiments_completed":  tr.counter("engine.experiments_completed"),
		"core.workspace_pool_misses":  tr.counter("engine.workspace_pool_misses"),
		"core.group_rebuilds":         tr.counter("engine.group_rebuilds"),
		"core.checkpoint_prefixes":    tr.counter("engine.checkpoint_prefixes"),
		"core.trie_suffix_forks":      tr.counter("engine.trie_suffix_forks"),
		"core.trie_sim_s_saved":       trieSaved,
		"core.sim_s_per_experiment":   simulated / n,
		"core.early_exits":            tr.counter("engine.early_exits"),
		"core.early_exit_sim_s_saved": earlySaved,
		"core.experiment_wall_ms.p50": tr.histogramQuantile("engine.experiment_wall_seconds", 0.5) * 1000,
		"core.experiment_wall_ms.p90": tr.histogramQuantile("engine.experiment_wall_seconds", 0.9) * 1000,

		"des.events_executed": events,
		"des.snapshots":       tr.counter("kernel.snapshots"),
		"des.restores":        tr.counter("kernel.restores"),
		"des.ns_per_event":    nsPerEvent,

		"runner.run_s":            runS,
		"runner.core_utilisation": cpu / (wall * float64(runtime.GOMAXPROCS(0))),
		"runner.worker_imbalance": tr.workerImbalance(runnerWorkers),
		"runner.sink_put_s":       tr.total("runner.CSVSink.Put").Seconds(),
		"runner.rows_emitted":     tr.counter("runner.results_emitted"),

		"fabric.lease_rtt_ms.p50":    ms(leaseRTT, 0.5),
		"fabric.lease_rtt_ms.p90":    ms(leaseRTT, 0.9),
		"fabric.complete_rtt_ms.p50": ms(completeRTT, 0.5),
		"fabric.complete_rtt_ms.p90": ms(completeRTT, 0.9),
		"fabric.handler_s":           tr.total("fabric.handler ").Seconds(),
		"fabric.execute_s":           tr.total("fabric.Executor.Execute").Seconds(),
		"fabric.worker_idle_s":       tr.total("fabric.worker.idle").Seconds(),
		"fabric.wire_bytes":          float64(wire),
		"fabric.leases_granted":      tr.counter("fabric.leases_granted"),
		"fabric.leases_expired":      tr.counter("fabric.leases_expired"),
		"fabric.stale_rejected":      tr.counter("fabric.stale_rejected"),
	}, nil
}

// plannedSimSeconds is the simulated time the executed ranges need before
// any trie or early-exit saving: the runner schedules each same-start run
// of a range as one group, which simulates its fault-free prefix once and
// every member from the attack start to the horizon; a group of one runs
// fresh from t = 0.
func plannedSimSeconds(parsed *config.Parsed, ranges [][2]int) float64 {
	horizon := parsed.Engine.Scenario.TotalSimTime.Seconds()
	specs := parsed.Campaign.Experiments()
	base := parsed.Campaign.Base
	total := 0.0
	for _, r := range ranges {
		for i := r[0]; i < r[1]; {
			start := specs[i-base].Start
			j := i
			for j < r[1] && specs[j-base].Start == start {
				j++
			}
			if size := j - i; size == 1 {
				total += horizon
			} else {
				total += start.Seconds() + float64(size)*(horizon-start.Seconds())
			}
			i = j
		}
	}
	return total
}
