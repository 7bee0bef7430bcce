package analysis

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"strconv"
	"strings"
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
		got = appendMatrixCSVRow(nil, e)
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
	if got := AppendCSVHeader(nil, false); !bytes.Equal(got, want.Bytes()) {
		t.Errorf("experiment header mismatch:\n got %q\nwant %q", got, want.Bytes())
	}

	want.Reset()
	cw = csv.NewWriter(&want)
	if err := cw.Write(MatrixCSVHeader()); err != nil {
		t.Fatal(err)
	}
	cw.Flush()
	if got := AppendCSVHeader(nil, true); !bytes.Equal(got, want.Bytes()) {
		t.Errorf("matrix header mismatch:\n got %q\nwant %q", got, want.Bytes())
	}
}

// TestCheckCSVRow pins the row check to the appenders: every row
// AppendCSVRow writes passes in its own schema, and a line that is not
// exactly one such row for the given expNr fails.
func TestCheckCSVRow(t *testing.T) {
	for _, e := range appendRowCases {
		line := string(AppendCSVRow(nil, e))
		if err := CheckCSVRow(line, e.Spec.Scenario != "", e.Spec.Nr); err != nil {
			t.Errorf("CheckCSVRow(%q) = %v, want nil", line, err)
		}
	}
	row := string(AppendCSVRow(nil, appendRowCases[0])) // expNr 1, delay
	body := strings.TrimSuffix(row, "\n")
	for name, line := range map[string]string{
		"other expNr":        "2" + row[1:],
		"two records":        row + row,
		"no newline":         body,
		"CRLF":               body + "\r\n",
		"blank line":         row + "\n",
		"blank line first":   "\n" + row,
		"needless quotes":    `"1"` + row[1:],
		"bare quote":         strings.Replace(row, "delay", `de"lay`, 1),
		"text after quote":   strings.Replace(row, "delay", `"de,lay"x`, 1),
		"unterminated quote": `1,"delay` + "\n",
		"empty":              "",
	} {
		if err := CheckCSVRow(line, false, 1); err == nil {
			t.Errorf("%s: CheckCSVRow(%q) accepted", name, line)
		}
	}
	if err := CheckCSVRow(row, true, 1); err == nil {
		t.Errorf("single-campaign row accepted in the matrix schema: %q", row)
	}
}

// checkCSVRowReference is the encoding/csv statement of CheckCSVRow's
// contract: read one record with the schema's field count, require nr as
// its first field, and require that re-encoding the record gives the
// line back byte for byte. FuzzCheckCSVRow holds the one-pass checker to
// exactly the set of lines this accepts.
func checkCSVRowReference(line string, matrix bool, nr int) error {
	r := csv.NewReader(strings.NewReader(line))
	r.FieldsPerRecord = len(CSVHeader(matrix))
	rec, err := r.Read()
	switch {
	case err != nil:
		return err
	case rec[0] != strconv.Itoa(nr):
		return fmt.Errorf("row %d starts with expNr %q", nr, rec[0])
	case string(appendCSVRecord(nil, rec)) != line:
		return fmt.Errorf("row %d does not re-encode to itself", nr)
	}
	return nil
}

// checkCSVRowSeeds are the TestCheckCSVRow lines plus the quoting corner
// cases of encoding/csv: CR LF inside a quoted label, doubled quotes,
// leading spaces and the literal \. field.
func checkCSVRowSeeds() []string {
	var seeds []string
	for _, e := range appendRowCases {
		seeds = append(seeds, string(AppendCSVRow(nil, e)))
	}
	row := seeds[0] // expNr 1, delay
	body := strings.TrimSuffix(row, "\n")
	seeds = append(seeds,
		"2"+row[1:], row+row, body, body+"\r\n", row+"\n", "\n"+row,
		`"1"`+row[1:], strings.Replace(row, "delay", `de"lay`, 1),
		strings.Replace(row, "delay", `"de,lay"x`, 1), `1,"delay`+"\n", "",
		strings.Replace(row, "delay", "\"de\r\nlay\"", 1),
		strings.Replace(row, "delay", "\"de\rlay\"", 1),
		strings.Replace(row, "delay", `"de""lay"`, 1),
		strings.Replace(row, "delay", `""`, 1),
		strings.Replace(row, "delay", " delay", 1),
		strings.Replace(row, "delay", `" delay"`, 1),
		strings.Replace(row, "delay", `\.`, 1),
		strings.Replace(row, "delay", `"\."`, 1),
		strings.Replace(row, "delay", `"delay"`, 1),
		strings.Replace(row, ",,", ",\"\",", 1),
	)
	return seeds
}

// FuzzCheckCSVRow holds the one-pass CheckCSVRow to the encoding/csv
// reference: both must accept exactly the same lines. Plain `go test`
// runs the seeds, in both schemas and against every seed row's expNr.
func FuzzCheckCSVRow(f *testing.F) {
	for _, line := range checkCSVRowSeeds() {
		for _, matrix := range []bool{false, true} {
			for _, e := range appendRowCases {
				f.Add(line, matrix, e.Spec.Nr)
			}
		}
	}
	f.Fuzz(func(t *testing.T, line string, matrix bool, nr int) {
		got := CheckCSVRow(line, matrix, nr)
		want := checkCSVRowReference(line, matrix, nr)
		if (got == nil) != (want == nil) {
			t.Fatalf("CheckCSVRow(%q, %v, %d) = %v, reference %v", line, matrix, nr, got, want)
		}
	})
}

// TestCheckCSVRowAllocs pins the accepting path at zero allocations: the
// coordinator checks every row a worker ships.
func TestCheckCSVRowAllocs(t *testing.T) {
	for _, e := range appendRowCases {
		line := string(AppendCSVRow(nil, e))
		matrix := e.Spec.Scenario != ""
		allocs := testing.AllocsPerRun(100, func() {
			if err := CheckCSVRow(line, matrix, e.Spec.Nr); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("CheckCSVRow(%q) allocs/op = %v, want 0", line, allocs)
		}
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
