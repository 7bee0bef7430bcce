package runner

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"comfase/internal/core"
)

func TestRangeValidateContains(t *testing.T) {
	cases := []struct {
		name     string
		r        Range
		valid    bool
		contains map[int]bool
	}{
		{
			name:     "disabled zero range contains everything",
			r:        Range{},
			valid:    true,
			contains: map[int]bool{0: true, 7: true, 1 << 20: true},
		},
		{
			name:     "half-open interval",
			r:        Range{From: 3, To: 6},
			valid:    true,
			contains: map[int]bool{2: false, 3: true, 5: true, 6: false},
		},
		{
			name:     "prefix from zero",
			r:        Range{From: 0, To: 2},
			valid:    true,
			contains: map[int]bool{0: true, 1: true, 2: false},
		},
		{name: "negative from", r: Range{From: -1, To: 4}, valid: false},
		{name: "inverted", r: Range{From: 5, To: 2}, valid: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.r.Validate()
			if tc.valid && err != nil {
				t.Fatalf("Validate(%v) = %v", tc.r, err)
			}
			if !tc.valid {
				if err == nil {
					t.Fatalf("Validate(%v) accepted", tc.r)
				}
				return
			}
			for nr, want := range tc.contains {
				if from, to := tc.r.clip(nr, nr+1); (from < to) != want {
					t.Errorf("%v.clip(%d, %d) = [%d,%d), want it to contain %d: %v", tc.r, nr, nr+1, from, to, nr, want)
				}
			}
		})
	}
	if _, err := New(chaosEngine(t, 0), Options{Range: Range{From: 2, To: 1}}); err == nil {
		t.Error("runner accepted an inverted range")
	}
}

// TestRangeSplitEquivalence is the fabric leasing invariant at the
// runner layer: executing a grid as range slices and concatenating the
// slice outputs must reproduce the unrestricted run byte for byte.
func TestRangeSplitEquivalence(t *testing.T) {
	setup := chaosGrid()
	setup.Values = setup.Values[:2]
	setup.Starts = setup.Starts[:3]
	setup.Durations = setup.Durations[:2] // 12 experiments
	total := setup.NumExperiments()

	runRange := func(r Range) string {
		t.Helper()
		var buf bytes.Buffer
		run, err := New(chaosEngine(t, 0), Options{Workers: 2, Range: r}, NewCSVSink(&buf))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if _, err := run.Run(context.Background(), setup); err != nil {
			t.Fatalf("Run(%v): %v", r, err)
		}
		return buf.String()
	}

	full := runRange(Range{})
	var spliced strings.Builder
	header := full[:strings.IndexByte(full, '\n')+1]
	spliced.WriteString(header)
	for from := 0; from < total; from += 5 {
		to := from + 5
		if to > total {
			to = total
		}
		part := runRange(Range{From: from, To: to})
		spliced.WriteString(strings.TrimPrefix(part, header))
	}
	if spliced.String() != full {
		t.Errorf("range-spliced CSV differs from the full run:\nspliced:\n%s\nfull:\n%s", spliced.String(), full)
	}
}

func TestMergeQuarantineFiles(t *testing.T) {
	recs := []core.ExperimentFailure{
		{Nr: 4, Attack: "delay", Class: "panic", Error: "boom", Attempts: 2},
		{Nr: 1, Attack: "delay", Class: "timeout", Error: "slow", Attempts: 1},
		{Nr: 9, Attack: "delay", Class: "invariant", Error: "NaN", Attempts: 3},
		{Nr: 2, Attack: "delay", Class: "panic", Error: "again", Attempts: 2},
	}
	dir := t.TempDir()
	writeFile := func(name string, failures []core.ExperimentFailure, chopTail bool) string {
		t.Helper()
		var buf bytes.Buffer
		sink := NewQuarantineSink(&buf)
		for _, f := range failures {
			if err := sink.Put(f); err != nil {
				t.Fatal(err)
			}
		}
		data := buf.Bytes()
		if chopTail {
			data = data[:len(data)-7] // mid-record, no trailing newline
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	// Worker A holds 4 and 1; worker B holds 9, 2 and a record truncated
	// by a mid-write kill that must be dropped silently.
	a := writeFile("a.jsonl", recs[:2], false)
	b := writeFile("b.jsonl", append(recs[2:4:4], core.ExperimentFailure{Nr: 7, Attack: "delay", Class: "panic"}), true)

	var merged bytes.Buffer
	if err := MergeQuarantineFiles(&merged, a, b); err != nil {
		t.Fatalf("MergeQuarantineFiles: %v", err)
	}
	// Expected: the sequential sink writing the surviving records in
	// grid order — byte identity, not just semantic equality.
	var want bytes.Buffer
	wantSink := NewQuarantineSink(&want)
	for _, nr := range []int{1, 2, 4, 9} {
		for _, f := range recs {
			if f.Nr == nr {
				if err := wantSink.Put(f); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if merged.String() != want.String() {
		t.Errorf("merged quarantine:\n%q\nwant:\n%q", merged.String(), want.String())
	}

	// A duplicate expNr across inputs is corruption, not mergeable.
	dup := writeFile("dup.jsonl", recs[:1], false)
	if err := MergeQuarantineFiles(&bytes.Buffer{}, a, dup); err == nil {
		t.Error("duplicate expNr across inputs accepted")
	}
	// Missing inputs are I/O errors, not silently empty.
	if err := MergeQuarantineFiles(&bytes.Buffer{}, filepath.Join(dir, "nope.jsonl")); err == nil {
		t.Error("missing input accepted")
	}
}
