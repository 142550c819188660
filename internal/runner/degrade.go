package runner

import (
	"errors"
	"fmt"
)

// This file is the runner's graceful-degradation surface: per-cell
// failure records and the aggregate GridError returned by
// ContinueOnError runs. The design target is the robustness acceptance
// bar of the chaos study: one poisoned cell in a 96-cell grid must
// never take down the process or discard the other 95 results — it
// becomes an annotated hole in the figure plus a structured error
// report.

// CellError records one failed cell of a ContinueOnError run.
type CellError struct {
	// Index is the cell's position in Plan.Cells.
	Index int
	// Cell identifies the failed coordinates.
	Cell Cell
	// Err is the cell's error, with the original cause chain
	// preserved — errors.As can recover structured payloads such as
	// *invariant.Violation through it.
	Err error
}

// Error renders the cell coordinates with the underlying error.
func (e CellError) Error() string { return fmt.Sprintf("%s: %v", e.Cell, e.Err) }

// Unwrap exposes the underlying error to errors.Is / errors.As.
func (e CellError) Unwrap() error { return e.Err }

// errors.Is and errors.As call Unwrap through these interfaces.
var (
	_ interface{ Unwrap() error }   = CellError{}
	_ interface{ Unwrap() []error } = (*GridError)(nil)
)

// GridError aggregates every cell failure of a ContinueOnError run. The
// successful cells' results are still returned alongside it; reducers
// treat the failed indexes as holes.
type GridError struct {
	// Plan is the plan name.
	Plan string
	// Total is the grid size.
	Total int
	// Failures lists the failed cells in ascending Index order.
	Failures []CellError
}

// Error summarizes the failure set.
func (e *GridError) Error() string {
	if len(e.Failures) == 0 {
		return fmt.Sprintf("runner: plan %s: empty grid error", e.Plan)
	}
	return fmt.Sprintf("runner: plan %s: %d of %d cells failed; first: %v",
		e.Plan, len(e.Failures), e.Total, e.Failures[0])
}

// Unwrap exposes every cell failure, so errors.Is / errors.As traverse
// all of them (finding, e.g., an *invariant.Violation in any cell).
func (e *GridError) Unwrap() []error {
	errs := make([]error, len(e.Failures))
	for i, f := range e.Failures {
		errs[i] = f
	}
	return errs
}

// AsGridError unwraps err to a *GridError if one is present.
func AsGridError(err error) (*GridError, bool) {
	var g *GridError
	if errors.As(err, &g) {
		return g, true
	}
	return nil, false
}
