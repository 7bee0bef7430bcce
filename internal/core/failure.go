package core

import (
	"context"
	"errors"
	"fmt"

	"comfase/internal/invariant"
	"comfase/internal/sim/des"
)

// FailureClass is the error taxonomy of the failure-containment layer: a
// campaign experiment that cannot produce a classified result is binned
// into exactly one class, so "what killed my 11k-run campaign" is
// answerable from counts instead of log archaeology.
type FailureClass int

// The failure classes, ordered roughly by diagnostic severity.
const (
	// FailError is the residual class: a regular experiment error that
	// matches none of the specific classes (bad model config, sink I/O).
	FailError FailureClass = iota
	// FailPanic is a Go panic recovered inside the experiment boundary.
	FailPanic
	// FailTimeout is a per-experiment wall-clock watchdog expiry.
	FailTimeout
	// FailBudget is the deterministic kernel event-budget watchdog.
	FailBudget
	// FailInvariant is a runtime invariant violation (NaN/Inf state,
	// position reversal, unhandled overlap) from internal/invariant.
	FailInvariant

	numFailureClasses
)

// String implements fmt.Stringer; the strings are the quarantine-file
// vocabulary and must stay stable.
func (c FailureClass) String() string {
	switch c {
	case FailError:
		return "error"
	case FailPanic:
		return "panic"
	case FailTimeout:
		return "timeout"
	case FailBudget:
		return "event-budget"
	case FailInvariant:
		return "invariant"
	default:
		return fmt.Sprintf("FailureClass(%d)", int(c))
	}
}

// ParseFailureClass inverts String.
func ParseFailureClass(s string) (FailureClass, error) {
	for c := FailError; c < numFailureClasses; c++ {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("core: unknown failure class %q", s)
}

// ClassifyFailure maps an experiment error to its FailureClass. Context
// cancellation from the campaign itself is not a failure and never
// reaches this function; a per-experiment deadline does, as
// context.DeadlineExceeded.
func ClassifyFailure(err error) FailureClass {
	switch {
	case isPanicError(err):
		return FailPanic
	case errors.Is(err, des.ErrBudgetExceeded):
		return FailBudget
	case errors.Is(err, invariant.ErrInvariant):
		return FailInvariant
	case errors.Is(err, context.DeadlineExceeded):
		return FailTimeout
	default:
		return FailError
	}
}

// PanicError is a recovered panic from inside the experiment execution
// boundary, converted to an error so one crashing experiment cannot take
// down the whole campaign process.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error implements error.
func (p *PanicError) Error() string {
	return fmt.Sprintf("core: experiment panicked: %v", p.Value)
}

func isPanicError(err error) bool {
	var pe *PanicError
	return errors.As(err, &pe)
}

// FailureCounts tallies quarantined experiments by class — the failure
// mirror of classify.Counts.
type FailureCounts struct {
	Error     int
	Panic     int
	Timeout   int
	Budget    int
	Invariant int
}

// Add increments the class tally.
func (c *FailureCounts) Add(class FailureClass) {
	switch class {
	case FailPanic:
		c.Panic++
	case FailTimeout:
		c.Timeout++
	case FailBudget:
		c.Budget++
	case FailInvariant:
		c.Invariant++
	default:
		c.Error++
	}
}

// Total is the number of counted failures.
func (c FailureCounts) Total() int {
	return c.Error + c.Panic + c.Timeout + c.Budget + c.Invariant
}

// String renders the non-zero tallies.
func (c FailureCounts) String() string {
	return fmt.Sprintf("panic=%d timeout=%d event-budget=%d invariant=%d error=%d",
		c.Panic, c.Timeout, c.Budget, c.Invariant, c.Error)
}

// ExperimentFailure is the quarantine record of one experiment that
// persistently failed (all retries exhausted). It flattens the spec to
// the same lossless-enough projection the CSV/JSONL sinks use —
// ExperimentSpec itself can carry a non-serialisable ModelFactory — so
// the record round-trips through quarantine.jsonl.
type ExperimentFailure struct {
	Nr        int      `json:"expNr"`
	Attack    string   `json:"attack"`
	Value     float64  `json:"value"`
	StartS    float64  `json:"startS"`
	DurationS float64  `json:"durationS"`
	Targets   []string `json:"targets,omitempty"`
	// Class is the FailureClass string ("panic", "timeout", ...).
	Class string `json:"class"`
	// Error is the final attempt's error text.
	Error string `json:"error"`
	// Stack is the recovered panic stack, when Class is "panic".
	Stack string `json:"stack,omitempty"`
	// Attempts is how many executions were tried (1 = no retry).
	Attempts int `json:"attempts"`
}

// NewExperimentFailure builds the quarantine record for spec's final
// error after the given number of attempts.
func NewExperimentFailure(spec ExperimentSpec, err error, attempts int) ExperimentFailure {
	f := ExperimentFailure{
		Nr:        spec.Nr,
		Attack:    spec.Attack,
		Value:     spec.Value,
		StartS:    spec.Start.Seconds(),
		DurationS: spec.Duration.Seconds(),
		Targets:   spec.Targets,
		Class:     ClassifyFailure(err).String(),
		Error:     err.Error(),
		Attempts:  attempts,
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		f.Stack = string(pe.Stack)
	}
	return f
}
