package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"
)

func TestSameSeedSameGrid(t *testing.T) {
	a, b := newSlice(42, defaultGroups), newSlice(42, defaultGroups)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("seed 42 gave two slices:\n%+v\n%+v", a, b)
	}
	ca, err := a.configJSON(false)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.configJSON(false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca, cb) {
		t.Fatalf("seed 42 gave two configs:\n%s\n%s", ca, cb)
	}
	if got, want := a.size(), defaultGroups*paperValues*paperDurations; got != want {
		t.Fatalf("slice has %d grid points, want %d", got, want)
	}
}

func TestSeedsShareStartsNotEngineSeeds(t *testing.T) {
	want := []float64{17, 18, 19, 20, 21}
	engineSeeds := map[uint64]int64{}
	for seed := int64(1); seed <= 10; seed++ {
		s := newSlice(seed, defaultGroups)
		if len(s.Starts) != len(want) {
			t.Fatalf("seed %d: starts %v, want %v", seed, s.Starts, want)
		}
		for i := range want {
			if math.Abs(s.Starts[i]-want[i]) > 1e-9 {
				t.Fatalf("seed %d: starts %v, want %v", seed, s.Starts, want)
			}
		}
		if prev, dup := engineSeeds[s.EngineSeed]; dup {
			t.Fatalf("seeds %d and %d share engine seed %d", prev, seed, s.EngineSeed)
		}
		engineSeeds[s.EngineSeed] = seed
	}
}

// benchmarkFile mirrors the parts of BENCHMARK.json the metric tables
// must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	declared := func(ms []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	if got := declared(bf.EndToEnd); !reflect.DeepEqual(got, endToEndUnits) {
		t.Errorf("end_to_end in BENCHMARK.json = %v, benchmark emits %v", got, endToEndUnits)
	}
	if got := declared(bf.PerLayer); !reflect.DeepEqual(got, perLayerUnits()) {
		t.Errorf("per_layer in BENCHMARK.json = %v, benchmark emits %v", got, perLayerUnits())
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads in BENCHMARK.json = %v, benchmark runs %v", names, want)
	}
}

func TestAttribute(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		alloc  bool
		want   string
	}{
		{[]string{"math.Log", "comfase/internal/phy.TwoRayInterference.LossDB"}, false, "math"},
		{[]string{"runtime.duffcopy", "comfase/internal/nic.(*Radio).endReception"}, false, "runtime"},
		{[]string{"sort.Stable", "comfase/internal/traffic.(*Simulator).detectCollisions"}, false, "traffic"},
		{[]string{"runtime.concatstrings", "comfase/internal/traffic.(*Simulator).detectCollisions"}, true, "traffic"},
		{[]string{"runtime.mallocgc", "encoding/json.Marshal", "comfase/internal/fabric.(*Worker).postOnce"}, true, "fabric"},
		{[]string{"comfase/internal/sim/des.(*Kernel).step"}, false, "des"},
		{[]string{"comfase/internal/runner/pool.Run.func1"}, false, "runner"},
		{[]string{"syscall.Syscall", "net.(*conn).Read", "net/http.(*persistConn).readLoop"}, false, "fabric"},
		{[]string{"runtime.gcBgMarkWorker"}, false, "runtime"},
		{[]string{"main.(*timedSink).Put"}, false, "runtime"},
		{nil, false, "runtime"},
	} {
		if got := attribute(tc.frames, tc.alloc); got != tc.want {
			t.Errorf("attribute(%v, alloc=%v) = %s, want %s", tc.frames, tc.alloc, got, tc.want)
		}
	}
}

// tinySlice is a three-group grid small enough for a unit test: 3 starts
// × 2 delays × 3 durations.
func tinySlice() slice {
	return slice{
		EngineSeed: 3,
		Starts:     []float64{17, 19, 21},
		Values:     []float64{0.4, 2.0},
		Durations:  []float64{1, 5, 20},
	}
}

func TestTinyGridSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs campaigns")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			b := bench{w: w, s: tinySlice(), seed: 5, seconds: time.Nanosecond, dir: t.TempDir()}
			rep, err := b.run(context.Background(), traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < b.s.size() {
				t.Fatalf("%s traced=%v: correct=%v failed=%d attempted=%d", w.name, traced, rep.Correct, rep.Failed, rep.Attempted)
			}
			want := endToEndUnits
			if traced {
				want = perLayerUnits()
			}
			if len(rep.Metrics) != len(want) {
				t.Fatalf("%s traced=%v: %d metrics, want %d", w.name, traced, len(rep.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := rep.Metrics[name]
				if !ok || m.Unit != unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v, want a finite value in %s", w.name, traced, name, m, unit)
				}
			}
			if !traced {
				if m := rep.Metrics["experiments_per_s"]; m.Value <= 0 {
					t.Errorf("%s: experiments_per_s = %v", w.name, m.Value)
				}
				continue
			}
			if got := rep.Metrics["core.experiments_completed"].Value; got != float64(b.s.size()) {
				t.Errorf("%s: core.experiments_completed = %v, want %d", w.name, got, b.s.size())
			}
			for _, kind := range []string{".cpu_share", ".alloc_share"} {
				sum := 0.0
				for _, l := range layers {
					sum += rep.Metrics[l+kind].Value
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Errorf("%s: %s values sum to %v, want 1", w.name, kind, sum)
				}
			}
		}
	}
}

func TestHostCorrection(t *testing.T) {
	slow := hostSpeed(2)
	if got := slow.nominal(3 * time.Second); got != 1500*time.Millisecond {
		t.Errorf("nominal(3s) at slowdown 2 = %v, want 1.5s", got)
	}
	if got := hostSpeed(1).mean(hostSpeed(3)); got != 2 {
		t.Errorf("mean of slowdowns 1 and 3 = %v, want 2", got)
	}
	at := time.Unix(100, 0)
	c := campaign{
		start: meter{at: at, steal: time.Second},
		end:   meter{at: at.Add(10 * time.Second), steal: time.Second + time.Duration(runtime.NumCPU())*2*time.Second},
	}
	if got := c.available(); got != 8*time.Second {
		t.Errorf("available = %v after 2 s of steal per vCPU in 10 s, want 8s", got)
	}
}

func TestReferenceReading(t *testing.T) {
	h := readHostSpeed()
	// A working host reads within an order of magnitude of the nominal.
	if h < 0.1 || h > 10 {
		t.Fatalf("host slowdown %v, want between 0.1 and 10", h)
	}
	if readSteal() < 0 {
		t.Fatal("negative steal time")
	}
}
