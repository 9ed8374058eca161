// Package engine is the execution substrate behind a wrangling run: a
// bounded worker pool plus a small task-DAG model. The pipeline of the
// paper's Figure 1 is embarrassingly parallel per source — every source's
// extract/match/map chain is independent — so the orchestrator describes
// the run as a DAG (per-source tasks fan out, a barrier feeds selection,
// then integration) and the engine decides how much hardware to throw at
// it (§4.3: "the scale of the data requires that the algorithms ... are
// executed on scalable infrastructures").
//
// Execution policy lives here and only here: callers state *what* depends
// on *what*; the engine owns worker bounds, batching, panic isolation,
// first-error propagation and context-cancellation. Results merge
// deterministically — a parallel run is byte-identical to a sequential
// one — because the engine never decides merge order, it only guarantees
// completion order within the DAG.
package engine

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// Workers normalises a requested parallelism degree: n >= 1 is taken
// verbatim, anything else (0, negatives) means "auto" — one worker per
// available CPU. This is the single policy point every caller goes
// through, so "auto" means the same thing across the codebase.
func Workers(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.NumCPU()
}

// PanicError wraps a panic recovered inside a task so one poisoned source
// cannot take down the whole run: the panic becomes an ordinary error with
// the captured stack, subject to the same first-error propagation as any
// other failure.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (p *PanicError) Error() string {
	return fmt.Sprintf("engine: task panicked: %v\n%s", p.Value, p.Stack)
}

// guard runs fn converting panics into *PanicError.
func guard(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}
