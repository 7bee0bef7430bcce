package main

import (
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The host is a share of a larger machine whose speed drifts by 2× and
// more over minutes as other tenants come and go: the hypervisor takes the
// VM's vCPUs away for a while (steal time) and neighbours on the same
// physical cores slow every instruction. Raw timings from runs minutes
// apart are therefore not comparable, so the benchmark corrects for both:
//
//   - Steal. The kernel counts the time the hypervisor ran something else
//     on each vCPU (/proc/stat). Wall times drop the stolen share: the
//     steal of all vCPUs over a phase divided by the vCPU count.
//   - Per-instruction speed. A fixed reference load of the benchmark's own
//     code runs right before and after every timed phase. Its CPU time —
//     which excludes steal — against refNominalCPU, its CPU time on the
//     nominal host, is the host's slowdown for that phase. Wall and CPU
//     times are divided by it.
//
// Both corrections leave the program's own cost in place: the reference
// is the benchmark's code, so a change to the program moves the corrected
// timings exactly as it moves the raw ones.

// Reference load shape: runnerWorkers goroutines, like the runner, each
// stepping a ring of vehicles with a car-following law (square roots and
// exponentials, as in the vehicle and traffic models), keeping its events
// in a binary heap (as the DES kernel does), reading a table at scattered
// places (as snapshots and restores do) and copying the state into a ring
// of records every few steps (as the trace slabs do). It allocates nothing
// while it runs, so its cost does not depend on the benchmark's heap. Its
// table fits a core's private cache: a table that did not came back from
// shared cache or memory after each campaign and read several times
// noisier than the campaigns themselves.
const (
	refVehicles = 32
	refSteps    = 1_050_000
	refKeep     = 64      // state records in each goroutine's ring
	refTable    = 1 << 16 // float64s in each goroutine's table: 512 KiB

	// refNominalCPU is the reference's CPU time between campaigns on the
	// nominal host, a quiet 2-vCPU Xeon (Sapphire Rapids) VM.
	refNominalCPU = 154 * time.Millisecond
)

// refEvent is one scheduled vehicle update in the reference load.
type refEvent struct {
	at  float64
	veh int
}

// refHeap is a binary min-heap of events on at.
type refHeap []refEvent

func (h *refHeap) push(e refEvent) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p].at <= s[i].at {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *refHeap) pop() refEvent {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < len(s) && s[l].at < s[m].at {
			m = l
		}
		if r < len(s) && s[r].at < s[m].at {
			m = r
		}
		if m == i {
			break
		}
		s[m], s[i] = s[i], s[m]
		i = m
	}
	*h = s
	return top
}

// refSink keeps each goroutine's result alive so the compiler cannot drop
// the work.
var refSink [runnerWorkers]float64

// refTables and refRings are the goroutines' tables and record rings,
// made once per process.
var (
	refTables   [runnerWorkers][]float64
	refRings    [runnerWorkers][][]float64
	refMakeOnce sync.Once
)

func makeRefMemory() {
	for id := range refTables {
		t := make([]float64, refTable)
		for i := range t {
			t[i] = float64(i%97) * 0.01
		}
		refTables[id] = t
		ring := make([][]float64, refKeep)
		for i := range ring {
			ring[i] = make([]float64, 2*refVehicles)
		}
		refRings[id] = ring
	}
}

// refWorker runs one goroutine's share of the reference load.
func refWorker(id int) {
	pos := make([]float64, refVehicles)
	vel := make([]float64, refVehicles)
	for i := range pos {
		pos[i] = float64(refVehicles-i) * 12
		vel[i] = 20 + float64(i%3)
	}
	table := refTables[id]
	kept := refRings[id]
	h := make(refHeap, 0, refVehicles)
	for i := 0; i < refVehicles; i++ {
		h.push(refEvent{at: float64(i) * 0.01, veh: i})
	}
	acc := 0.0
	for step := 0; step < refSteps; step++ {
		e := h.pop()
		i := e.veh
		lead := (i + refVehicles - 1) % refVehicles
		gap := math.Abs(pos[lead]-pos[i]) + 2
		want := 2 + vel[i]*1.2 + vel[i]*(vel[i]-vel[lead])/(2*math.Sqrt(1.5*2))
		a := 1.5 * (1 - math.Pow(vel[i]/33, 4) - (want/gap)*(want/gap))
		a *= 1 - math.Exp(-0.1/0.5)
		vel[i] = math.Max(0, math.Min(40, vel[i]+a*0.1+table[(step*7919)%refTable]*1e-9))
		pos[i] += vel[i] * 0.1
		acc += a
		if step%8 == 0 {
			rec := kept[step/8%refKeep]
			copy(rec, pos)
			copy(rec[refVehicles:], vel)
		}
		h.push(refEvent{at: e.at + 0.1 + float64(i)*1e-6, veh: i})
	}
	refSink[id] = acc + kept[0][0]
}

// rusageThread is Linux's RUSAGE_THREAD, which the syscall package does
// not name.
const rusageThread = 1

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(rusageThread, &ru) // cannot fail for the calling thread
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// reference runs the reference load once and returns its CPU time: the
// sum over its goroutines of their own threads' CPU time, so runtime
// background work (sweeping, scavenging) does not count.
func reference() time.Duration {
	refMakeOnce.Do(makeRefMemory)
	// Finish any collection the measured phase left running, so that none
	// runs beside the reference.
	runtime.GC()
	var (
		wg  sync.WaitGroup
		cpu [runnerWorkers]time.Duration
	)
	for id := 0; id < runnerWorkers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			before := threadCPU()
			refWorker(id)
			cpu[id] = threadCPU() - before
		}(id)
	}
	wg.Wait()
	var total time.Duration
	for _, d := range cpu {
		total += d
	}
	return total
}

// hostSpeed is the host's slowdown against the nominal host: the
// reference's CPU time at one moment, or the mean of two readings around
// a timed phase, over refNominalCPU.
type hostSpeed float64

// readHostSpeed runs the reference load once. It takes about a third of a
// second of CPU time, long enough to average out the host's
// millisecond-scale jitter.
func readHostSpeed() hostSpeed {
	return hostSpeed(float64(reference()) / float64(refNominalCPU))
}

func (h hostSpeed) mean(o hostSpeed) hostSpeed { return (h + o) / 2 }

// nominal scales a time measured at this speed to the nominal host.
func (h hostSpeed) nominal(d time.Duration) time.Duration {
	return time.Duration(float64(d) / float64(h))
}

// available is the wall time of a campaign less its share of steal.
func (c campaign) available() time.Duration {
	return c.wall() - (c.end.steal-c.start.steal)/time.Duration(runtime.NumCPU())
}

// readSteal returns the steal time of all vCPUs since boot, or 0 where
// the kernel does not report it.
func readSteal() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseUint(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	// /proc/stat counts in USER_HZ, 100 per second on Linux.
	return time.Duration(ticks) * 10 * time.Millisecond
}
