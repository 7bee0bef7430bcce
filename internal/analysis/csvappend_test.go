package analysis

import (
	"bytes"
	"encoding/csv"
	"math"
	"testing"

	"comfase/internal/classify"
	"comfase/internal/core"
	"comfase/internal/sim/des"
	"comfase/internal/traffic"
)

// appendRowCases exercises the field shapes that can reach result rows,
// plus adversarial strings that force every encoding/csv quoting rule.
var appendRowCases = []core.ExperimentResult{
	{
		Spec:    core.ExperimentSpec{Nr: 1, Attack: "delay", Value: 0.5, Start: 20 * des.Second, Duration: 5 * des.Second},
		Outcome: classify.NonEffective, MaxDecel: 1.2345, MaxSpeedDev: 0.5,
	},
	{
		Spec:    core.ExperimentSpec{Nr: 42, Attack: "falsification", Scenario: "paper-platoon", Value: 1e-9, Start: des.Second / 2, Duration: 0},
		Outcome: classify.Severe, MaxDecel: 9.81, MaxSpeedDev: 12.75,
		Collisions: []traffic.Collision{{}}, Collider: "vehicle.2",
	},
	{
		Spec:    core.ExperimentSpec{Nr: -3, Attack: "with,comma", Scenario: "with\"quote", Value: math.Inf(1)},
		Outcome: classify.Severe, MaxDecel: math.NaN(),
		Collider: " leading-space",
	},
	{
		Spec:     core.ExperimentSpec{Nr: 0, Attack: "line\nbreak", Scenario: `\.`},
		Collider: "cr\rfield",
	},
}

// TestAppendRowMatchesEncodingCSV pins the zero-allocation appenders to
// encoding/csv byte for byte: the streaming sinks rely on this to keep
// result files identical to the batch ExperimentsCSV export.
func TestAppendRowMatchesEncodingCSV(t *testing.T) {
	for _, e := range appendRowCases {
		var want bytes.Buffer
		cw := csv.NewWriter(&want)
		if err := cw.Write(ExperimentCSVRecord(e)); err != nil {
			t.Fatalf("csv.Write: %v", err)
		}
		cw.Flush()
		got := AppendExperimentCSVRow(nil, e)
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("experiment row mismatch:\n got %q\nwant %q", got, want.Bytes())
		}

		want.Reset()
		cw = csv.NewWriter(&want)
		if err := cw.Write(MatrixCSVRecord(e)); err != nil {
			t.Fatalf("csv.Write: %v", err)
		}
		cw.Flush()
		got = AppendMatrixCSVRow(nil, e)
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("matrix row mismatch:\n got %q\nwant %q", got, want.Bytes())
		}
	}
}

// TestAppendHeaderMatchesEncodingCSV pins the header encodings the same
// way.
func TestAppendHeaderMatchesEncodingCSV(t *testing.T) {
	var want bytes.Buffer
	cw := csv.NewWriter(&want)
	if err := cw.Write(ExperimentCSVHeader()); err != nil {
		t.Fatal(err)
	}
	cw.Flush()
	if got := AppendExperimentCSVHeader(nil); !bytes.Equal(got, want.Bytes()) {
		t.Errorf("experiment header mismatch:\n got %q\nwant %q", got, want.Bytes())
	}

	want.Reset()
	cw = csv.NewWriter(&want)
	if err := cw.Write(MatrixCSVHeader()); err != nil {
		t.Fatal(err)
	}
	cw.Flush()
	if got := AppendMatrixCSVHeader(nil); !bytes.Equal(got, want.Bytes()) {
		t.Errorf("matrix header mismatch:\n got %q\nwant %q", got, want.Bytes())
	}
}

// TestAppendRowSteadyStateAllocs pins the reused-buffer encoding at zero
// allocations per row.
func TestAppendRowSteadyStateAllocs(t *testing.T) {
	e := appendRowCases[1]
	buf := AppendExperimentCSVRow(nil, e) // warm the buffer
	allocs := testing.AllocsPerRun(1000, func() {
		buf = AppendExperimentCSVRow(buf[:0], e)
	})
	if allocs != 0 {
		t.Errorf("AppendExperimentCSVRow allocs/op = %v, want 0", allocs)
	}
}
