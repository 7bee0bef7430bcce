package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"

	"comfase/internal/analysis"
	"comfase/internal/config"
	"comfase/internal/core"
)

// freshSample is how many grid points per run are recomputed on the
// fresh path: about 1 s of work, and enough to hit a fault that corrupts
// 2% of the rows in nine runs out of ten.
const freshSample = 120

// outcomeColumn is the index of the outcome field in a result row.
const outcomeColumn = 5

// verdict tallies the output checks of one benchmark run.
type verdict struct {
	attempted   int
	quarantined int
	missing     int
	mismatched  map[int]bool // expNr of every row that failed a comparison
	notes       []string
}

func (v *verdict) failed() int { return v.quarantined + v.missing + len(v.mismatched) }

func (v *verdict) mismatch(nr int, format string, args ...any) {
	if v.mismatched == nil {
		v.mismatched = map[int]bool{}
	}
	if !v.mismatched[nr] && len(v.notes) < 10 {
		v.notes = append(v.notes, fmt.Sprintf("expNr %d: ", nr)+fmt.Sprintf(format, args...))
	}
	v.mismatched[nr] = true
}

// rows splits a result CSV into its data rows. The generated grid numbers
// its points from 0, so a row's index is its expNr.
func rows(csv []byte) []string {
	lines := strings.Split(strings.TrimSuffix(string(csv), "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		return nil
	}
	return lines[1:]
}

// checkCampaigns checks every measured campaign's output: the full row
// count, nothing quarantined, and the same bytes as the first campaign.
func checkCampaigns(v *verdict, cs []campaign, n int) {
	if len(cs) == 0 {
		return
	}
	first := rows(cs[0].csv)
	for _, c := range cs {
		v.attempted += n
		v.quarantined += c.failed
		got := rows(c.csv)
		if len(got) < n-c.failed {
			v.missing += n - c.failed - len(got)
		}
		if bytes.Equal(c.csv, cs[0].csv) {
			continue
		}
		for i := range got {
			if i >= len(first) || got[i] != first[i] {
				v.mismatch(i, "row differs between campaigns of the same run")
			}
		}
	}
}

// checkFresh recomputes a seeded sample of grid points one by one on the
// fresh path — Engine.RunExperiment with the workload's engine settings,
// no checkpoints — and compares each row byte for byte.
func checkFresh(ctx context.Context, v *verdict, cfgJSON []byte, csv []byte, seed int64) error {
	parsed, err := config.Parse(bytes.NewReader(cfgJSON))
	if err != nil {
		return err
	}
	eng, err := core.NewEngine(parsed.Engine)
	if err != nil {
		return err
	}
	if err := eng.EnsureGolden(ctx); err != nil {
		return err
	}
	specs := parsed.Campaign.Experiments()
	got := rows(csv)
	rng := rand.New(rand.NewSource(seed))
	var buf []byte
	for k := 0; k < freshSample && k < len(specs); k++ {
		i := rng.Intn(len(specs))
		res, err := eng.RunExperiment(specs[i])
		if err != nil {
			v.mismatch(specs[i].Nr, "fresh recompute failed: %v", err)
			continue
		}
		buf = analysis.AppendExperimentCSVRow(buf[:0], res)
		want := strings.TrimSuffix(string(buf), "\n")
		if i >= len(got) || got[i] != want {
			v.mismatch(specs[i].Nr, "row is not the fresh-path row %q", want)
		}
	}
	return nil
}

// checkSameBytes compares two result CSVs of one grid row by row.
func checkSameBytes(v *verdict, got, want []byte, what string) {
	if bytes.Equal(got, want) {
		return
	}
	g, w := rows(got), rows(want)
	for i := 0; i < len(g) || i < len(w); i++ {
		if i >= len(g) || i >= len(w) || g[i] != w[i] {
			v.mismatch(i, "row differs from %s", what)
		}
	}
}

// checkOutcomes compares the outcome column of two result CSVs of one
// grid. Early exit keeps every outcome but may shorten the kinematic
// columns, so only the outcome is compared across that pair.
func checkOutcomes(v *verdict, got, want []byte, what string) {
	g, w := rows(got), rows(want)
	for i := 0; i < len(g) || i < len(w); i++ {
		if i >= len(g) || i >= len(w) || field(g[i], outcomeColumn) != field(w[i], outcomeColumn) {
			v.mismatch(i, "outcome differs from %s", what)
		}
	}
}

// field returns the i-th comma-separated field of a result row. The
// fields before the collider column never contain commas or quotes.
func field(row string, i int) string {
	for ; i > 0; i-- {
		_, row, _ = strings.Cut(row, ",")
	}
	f, _, _ := strings.Cut(row, ",")
	return f
}

// checkAcrossWorkloads runs the other workloads' local paths on the same
// slice and compares: trie and fabric rows must be byte-identical, and
// every workload must classify every grid point the same way.
func checkAcrossWorkloads(ctx context.Context, v *verdict, w workload, s slice, csv []byte, dir string) error {
	reference := func(earlyExit bool) ([]byte, error) {
		cfg, err := s.configJSON(earlyExit)
		if err != nil {
			return nil, err
		}
		c, err := runLocal(ctx, cfg, dir, nil, false)
		if err != nil {
			return nil, err
		}
		v.quarantined += c.failed
		return c.csv, nil
	}
	if w.earlyExit {
		trie, err := reference(false)
		if err != nil {
			return err
		}
		checkOutcomes(v, csv, trie, "delay-trie")
		return nil
	}
	early, err := reference(true)
	if err != nil {
		return err
	}
	checkOutcomes(v, csv, early, "delay-early-exit")
	if w.fabric {
		trie, err := reference(false)
		if err != nil {
			return err
		}
		checkSameBytes(v, csv, trie, "delay-trie")
	}
	return nil
}
