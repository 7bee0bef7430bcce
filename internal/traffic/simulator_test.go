package traffic

import (
	"errors"
	"math"
	"strings"
	"testing"

	"comfase/internal/invariant"

	"comfase/internal/roadnet"
	"comfase/internal/sim/des"
	"comfase/internal/vehicle"
)

func newTestSim(t *testing.T) (*des.Kernel, *Simulator) {
	t.Helper()
	k := des.NewKernel()
	net, err := roadnet.NewNetwork(roadnet.PaperHighway())
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	sim, err := NewSimulator(Config{Kernel: k, Network: net})
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	return k, sim
}

func idealCar(id string) vehicle.Spec {
	s := vehicle.PaperCar(id)
	s.ActuationLag = 0
	return s
}

func TestNewSimulatorValidation(t *testing.T) {
	net, _ := roadnet.NewNetwork(roadnet.PaperHighway())
	if _, err := NewSimulator(Config{Network: net}); err == nil {
		t.Error("missing kernel accepted")
	}
	if _, err := NewSimulator(Config{Kernel: des.NewKernel()}); err == nil {
		t.Error("missing network accepted")
	}
}

func TestDefaultStepLength(t *testing.T) {
	_, sim := newTestSim(t)
	if sim.StepLength() != 10*des.Millisecond {
		t.Errorf("StepLength = %v, want 10ms (Plexe default)", sim.StepLength())
	}
}

func TestAddVehicleDuplicate(t *testing.T) {
	_, sim := newTestSim(t)
	if _, err := sim.AddVehicle(idealCar("v"), vehicle.State{}); err != nil {
		t.Fatalf("AddVehicle: %v", err)
	}
	if _, err := sim.AddVehicle(idealCar("v"), vehicle.State{}); !errors.Is(err, ErrDuplicateVehicle) {
		t.Errorf("duplicate add = %v, want ErrDuplicateVehicle", err)
	}
}

func TestAddVehicleAfterStart(t *testing.T) {
	_, sim := newTestSim(t)
	if err := sim.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if _, err := sim.AddVehicle(idealCar("late"), vehicle.State{}); !errors.Is(err, ErrStarted) {
		t.Errorf("late add = %v, want ErrStarted", err)
	}
	if err := sim.Start(); !errors.Is(err, ErrStarted) {
		t.Errorf("double Start = %v, want ErrStarted", err)
	}
}

func TestVehicleLookup(t *testing.T) {
	_, sim := newTestSim(t)
	want, _ := sim.AddVehicle(idealCar("v"), vehicle.State{})
	got, err := sim.Vehicle("v")
	if err != nil || got != want {
		t.Errorf("Vehicle = %v, %v", got, err)
	}
	if _, err := sim.Vehicle("missing"); !errors.Is(err, ErrUnknownVehicle) {
		t.Errorf("missing lookup = %v, want ErrUnknownVehicle", err)
	}
	if n := len(sim.Vehicles()); n != 1 {
		t.Errorf("Vehicles len = %d", n)
	}
}

func TestSimulatorAdvancesDynamics(t *testing.T) {
	k, sim := newTestSim(t)
	v, _ := sim.AddVehicle(idealCar("v"), vehicle.State{Pos: 0, Speed: 20})
	if err := sim.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := k.RunUntil(10 * des.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if math.Abs(v.State.Pos-200) > 1e-6 {
		t.Errorf("Pos = %v after 10 s at 20 m/s, want 200", v.State.Pos)
	}
}

func TestPreStepHookControlsVehicle(t *testing.T) {
	k, sim := newTestSim(t)
	v, _ := sim.AddVehicle(idealCar("v"), vehicle.State{Speed: 20})
	sim.OnPreStep(func(des.Time) { v.Command(1) })
	var samples int
	sim.OnPostStep(func(des.Time) { samples++ })
	_ = sim.Start()
	if err := k.RunUntil(des.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if math.Abs(v.State.Speed-21) > 1e-9 {
		t.Errorf("Speed = %v, want 21 after 1 s at +1 m/s^2", v.State.Speed)
	}
	if samples != 100 {
		t.Errorf("post-step hook ran %d times, want 100", samples)
	}
}

func TestCollisionDetectionAndHalt(t *testing.T) {
	k, sim := newTestSim(t)
	// Front vehicle stopped at 100 m; rear approaches at 20 m/s from 50 m.
	front, _ := sim.AddVehicle(idealCar("front"), vehicle.State{Pos: 100, Speed: 0})
	rear, _ := sim.AddVehicle(idealCar("rear"), vehicle.State{Pos: 50, Speed: 20})
	var seen []Collision
	sim.OnCollision(func(c Collision) { seen = append(seen, c) })
	_ = sim.Start()
	if err := k.RunUntil(10 * des.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(seen) != 1 {
		t.Fatalf("collisions = %d, want 1", len(seen))
	}
	c := seen[0]
	if c.Collider != "rear" || c.Victim != "front" {
		t.Errorf("attribution = %s into %s, want rear into front", c.Collider, c.Victim)
	}
	if c.RelSpeed <= 0 {
		t.Errorf("RelSpeed = %v, want positive closing speed", c.RelSpeed)
	}
	// Gap 46 m at 20 m/s -> impact around 2.3 s.
	if c.Time < 2*des.Second || c.Time > 3*des.Second {
		t.Errorf("collision at %v, want ~2.3 s", c.Time)
	}
	if !rear.Halted() || !front.Halted() {
		t.Error("collided vehicles not halted")
	}
	if got := sim.Collisions(); len(got) != 1 || got[0] != c {
		t.Errorf("Collisions() = %v", got)
	}
}

func TestCollisionReportedOncePerPair(t *testing.T) {
	k, sim := newTestSim(t)
	_, _ = sim.AddVehicle(idealCar("front"), vehicle.State{Pos: 20, Speed: 0})
	_, _ = sim.AddVehicle(idealCar("rear"), vehicle.State{Pos: 10, Speed: 15})
	_ = sim.Start()
	if err := k.RunUntil(5 * des.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if n := len(sim.Collisions()); n != 1 {
		t.Errorf("collision reported %d times, want once", n)
	}
}

// TestPostCollisionStepAllocatesNothing pins the steady state of a
// colliding experiment: once a pair is recorded, every later step still
// finds it overlapping and looks it up, which must not allocate (the
// pair key is built in a retained buffer, not concatenated per step).
func TestPostCollisionStepAllocatesNothing(t *testing.T) {
	k, sim := newTestSim(t)
	_, _ = sim.AddVehicle(idealCar("front"), vehicle.State{Pos: 20, Speed: 0})
	_, _ = sim.AddVehicle(idealCar("rear"), vehicle.State{Pos: 10, Speed: 15})
	_ = sim.Start()
	if err := k.RunUntil(5 * des.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if n := len(sim.Collisions()); n != 1 {
		t.Fatalf("collisions = %d, want 1 before measuring", n)
	}
	if allocs := testing.AllocsPerRun(100, sim.step); allocs != 0 {
		t.Errorf("post-collision step allocates %v times, want 0", allocs)
	}
	if n := len(sim.Collisions()); n != 1 {
		t.Errorf("collisions = %d after the measured steps, want 1", n)
	}
}

func TestChainCollisionAttribution(t *testing.T) {
	k, sim := newTestSim(t)
	// Three-vehicle chain: middle rams front, then tail rams the wreck.
	_, _ = sim.AddVehicle(idealCar("front"), vehicle.State{Pos: 200, Speed: 0})
	_, _ = sim.AddVehicle(idealCar("middle"), vehicle.State{Pos: 150, Speed: 25})
	_, _ = sim.AddVehicle(idealCar("tail"), vehicle.State{Pos: 100, Speed: 25})
	_ = sim.Start()
	if err := k.RunUntil(20 * des.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	cs := sim.Collisions()
	if len(cs) != 2 {
		t.Fatalf("collisions = %v, want 2 (pile-up)", cs)
	}
	if cs[0].Collider != "middle" || cs[0].Victim != "front" {
		t.Errorf("first collision %v", cs[0])
	}
	if cs[1].Collider != "tail" || cs[1].Victim != "middle" {
		t.Errorf("second collision %v", cs[1])
	}
	if !cs[1].Time.After(cs[0].Time) {
		t.Error("pile-up collision not later than first")
	}
}

func TestVehiclesOnDifferentLanesDoNotCollide(t *testing.T) {
	k, sim := newTestSim(t)
	_, _ = sim.AddVehicle(idealCar("a"), vehicle.State{Pos: 100, Speed: 0, Lane: 0})
	_, _ = sim.AddVehicle(idealCar("b"), vehicle.State{Pos: 50, Speed: 20, Lane: 1})
	_ = sim.Start()
	if err := k.RunUntil(10 * des.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if n := len(sim.Collisions()); n != 0 {
		t.Errorf("cross-lane collision reported: %v", sim.Collisions())
	}
}

func TestLeaderTracksSinusoid(t *testing.T) {
	k, sim := newTestSim(t)
	m := Sinusoidal{Base: 27.78, Amplitude: 1.233, Frequency: 0.2, Phase: 1.05}
	tracker := SpeedTracker{Maneuver: m, Gain: 2, LagComp: 0.5}
	v, _ := sim.AddVehicle(vehicle.PaperCar("leader"),
		vehicle.State{Pos: 100, Speed: m.TargetSpeed(0)})
	sim.OnPreStep(func(now des.Time) {
		v.Command(tracker.Accel(now.Seconds(), v.State))
	})
	var maxErr float64
	sim.OnPostStep(func(now des.Time) {
		if now < 10*des.Second {
			return // allow transient to settle
		}
		e := math.Abs(v.State.Speed - m.TargetSpeed(now.Seconds()))
		if e > maxErr {
			maxErr = e
		}
	})
	_ = sim.Start()
	if err := k.RunUntil(60 * des.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if maxErr > 0.35 {
		t.Errorf("steady-state speed tracking error %v m/s, want < 0.35", maxErr)
	}
}

// TestInvariantCheckCatchesNaN corrupts a vehicle's state mid-run and
// checks the simulator latches an ErrInvariant fault and stops the
// kernel instead of silently producing garbage samples.
func TestInvariantCheckCatchesNaN(t *testing.T) {
	k := des.NewKernel()
	net, _ := roadnet.NewNetwork(roadnet.PaperHighway())
	sim, err := NewSimulator(Config{Kernel: k, Network: net, Invariants: true})
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	v, err := sim.AddVehicle(idealCar("vehicle.1"), vehicle.State{Pos: 100, Speed: 20})
	if err != nil {
		t.Fatalf("AddVehicle: %v", err)
	}
	if err := sim.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	k.ScheduleAt(100*des.Millisecond, func() { v.State.Speed = math.NaN() })
	err = k.RunUntil(des.Second)
	if !errors.Is(err, des.ErrStopped) {
		t.Fatalf("RunUntil = %v, want ErrStopped (fault latch)", err)
	}
	fault := sim.Fault()
	if fault == nil || !errors.Is(fault, invariant.ErrInvariant) {
		t.Fatalf("Fault() = %v, want an ErrInvariant violation", fault)
	}
	if !strings.Contains(fault.Error(), "vehicle.1") {
		t.Errorf("fault %q does not name the vehicle", fault)
	}
	if k.Now() >= des.Second {
		t.Errorf("kernel ran to %v despite fault", k.Now())
	}
}

// TestInvariantCheckAllowsHaltedWreck runs two vehicles into a rear-end
// collision with invariants enabled: the halted overlap is a legitimate
// simulation outcome, not a violation.
func TestInvariantCheckAllowsHaltedWreck(t *testing.T) {
	k := des.NewKernel()
	net, _ := roadnet.NewNetwork(roadnet.PaperHighway())
	sim, err := NewSimulator(Config{Kernel: k, Network: net, Invariants: true})
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	if _, err := sim.AddVehicle(idealCar("front"), vehicle.State{Pos: 50, Speed: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.AddVehicle(idealCar("rear"), vehicle.State{Pos: 30, Speed: 30}); err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := k.RunUntil(5 * des.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if sim.Fault() != nil {
		t.Errorf("halted wreck reported as fault: %v", sim.Fault())
	}
	if len(sim.Collisions()) != 1 {
		t.Errorf("collisions = %d, want 1", len(sim.Collisions()))
	}
}

// TestInvariantResetClearsFault pins Reset's fault/flag behavior.
func TestInvariantResetClearsFault(t *testing.T) {
	k := des.NewKernel()
	net, _ := roadnet.NewNetwork(roadnet.PaperHighway())
	sim, err := NewSimulator(Config{Kernel: k, Network: net, Invariants: true})
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	sim.fault = errors.New("stale")
	if err := sim.Reset(Config{Kernel: k, Network: net}); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if sim.Fault() != nil {
		t.Errorf("Reset kept fault %v", sim.Fault())
	}
	if sim.inv {
		t.Error("Reset kept invariants enabled despite cfg.Invariants=false")
	}
}
