package analysis

import (
	"fmt"
	"io"

	"comfase/internal/classify"
	"comfase/internal/core"
)

// Cell identifies one (scenario, attack) cell of a matrix campaign. A
// plain single-scenario campaign has an empty Scenario.
type Cell struct {
	Scenario string
	Attack   string
}

// String renders "scenario/attack" (or just the attack outside
// matrices).
func (c Cell) String() string {
	if c.Scenario == "" {
		return c.Attack
	}
	return c.Scenario + "/" + c.Attack
}

// CellOf extracts an experiment's cell identity.
func CellOf(e core.ExperimentResult) Cell {
	return Cell{Scenario: e.Spec.Scenario, Attack: e.Spec.Attack}
}

// CellGroup is one cell's experiments with their classification tally.
type CellGroup struct {
	Cell Cell
	// Experiments are the cell's results in grid order.
	Experiments []core.ExperimentResult
	// Counts is the cell's outcome tally.
	Counts classify.Counts
}

// GroupCells splits experiments by cell, preserving grid order both
// across groups (first-appearance order = matrix expansion order) and
// within each group.
func GroupCells(exps []core.ExperimentResult) []CellGroup {
	idx := make(map[Cell]int)
	var groups []CellGroup
	for _, e := range exps {
		c := CellOf(e)
		i, ok := idx[c]
		if !ok {
			i = len(groups)
			idx[c] = i
			groups = append(groups, CellGroup{Cell: c})
		}
		groups[i].Experiments = append(groups[i].Experiments, e)
		groups[i].Counts.Add(e.Outcome)
	}
	return groups
}

// CellCounts tallies outcomes per cell label in grid order — the
// per-cell classification table of one matrix run.
func CellCounts(exps []core.ExperimentResult) *classify.LabeledCounts {
	var lc classify.LabeledCounts
	for _, e := range exps {
		lc.Add(CellOf(e).String(), e.Outcome)
	}
	return &lc
}

// CellFamily is one cell's figure family: the Fig. 5/6/7 outcome
// series and the collider attribution, computed over that cell alone.
type CellFamily struct {
	Cell      Cell
	Counts    classify.Counts
	ByDur     Series
	ByVal     Series
	ByStart   Series
	Colliders []ColliderShare
}

// CellFamilies computes each cell's figure family in grid order.
func CellFamilies(groups []CellGroup) []CellFamily {
	out := make([]CellFamily, 0, len(groups))
	for _, g := range groups {
		out = append(out, CellFamily{
			Cell:      g.Cell,
			Counts:    g.Counts,
			ByDur:     ByDuration(g.Experiments),
			ByVal:     ByValue(g.Experiments),
			ByStart:   ByStart(g.Experiments),
			Colliders: ColliderShares(g.Experiments),
		})
	}
	return out
}

// WriteCellReport renders one cell's figure family: headline tally,
// the three outcome series, and the collider attribution.
func WriteCellReport(w io.Writer, f CellFamily) error {
	if _, err := fmt.Fprintf(w, "cell %s: %d experiments: %v\n",
		f.Cell, f.Counts.Total(), f.Counts); err != nil {
		return err
	}
	for _, s := range []Series{f.ByDur, f.ByVal, f.ByStart} {
		if err := WriteSeriesTable(w, s); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, "collider attribution:"); err != nil {
		return err
	}
	return WriteColliderTable(w, f.Colliders)
}

// WriteCellTable renders the per-cell classification tally as an
// aligned table, one row per (scenario, attack) cell in grid order.
func WriteCellTable(w io.Writer, groups []CellGroup) error {
	if _, err := fmt.Fprintf(w, "%-32s %8s %8s %12s %14s %8s\n",
		"cell", "severe", "benign", "negligible", "non-effective", "total"); err != nil {
		return err
	}
	for _, g := range groups {
		if _, err := fmt.Fprintf(w, "%-32s %8d %8d %12d %14d %8d\n",
			g.Cell, g.Counts.Severe, g.Counts.Benign, g.Counts.Negligible,
			g.Counts.NonEffective, g.Counts.Total()); err != nil {
			return err
		}
	}
	return nil
}
