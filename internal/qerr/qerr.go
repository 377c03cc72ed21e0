// Package qerr declares the typed sentinel errors of the resilience layer.
// They live in their own leaf package so that every layer (region kernels,
// algebra evaluator, engine, facade) can wrap them without import cycles;
// the public facade re-exports them as qof.ErrBudgetExceeded and
// qof.ErrInternal.
//
// Cancellation and deadlines are not redeclared here: those surface as
// context.Canceled and context.DeadlineExceeded, so callers use errors.Is
// with the standard sentinels.
package qerr

import (
	"errors"
	"fmt"
)

// ErrBudgetExceeded is wrapped by errors reporting that a query ran past a
// per-query resource budget (qof.WithMaxRegions, qof.WithMaxEvalBytes).
// Unlike a deadline it is deterministic: the same query over the same index
// under the same budget always trips at the same point.
var ErrBudgetExceeded = errors.New("resource budget exceeded")

// ErrInternal is wrapped by errors produced when a panic was recovered at an
// isolation boundary (the facade, a phase-2 worker, a per-file corpus
// evaluation). The engine remains usable after such an error: all shared
// state is immutable during execution, so an abandoned evaluation cannot
// tear it.
var ErrInternal = errors.New("internal error (recovered panic)")

// MaxQueryDepth bounds how deep the operators of a query text may nest, in
// both query languages (XSQL conditions, region-algebra expressions). Every
// walker over a parsed query recurses once per level, and a Go stack that
// overflows kills the process instead of raising an error, so the parsers
// refuse deeper input before any walker sees it.
const MaxQueryDepth = 256

// DepthError reports query text nested past MaxQueryDepth. It belongs to the
// ErrBudgetExceeded family: deterministic, and decided by the parser alone.
type DepthError struct {
	Lang string // "xsql" or "algebra"
}

func (e *DepthError) Error() string {
	return fmt.Sprintf("%s: query nests deeper than %d: %v", e.Lang, MaxQueryDepth, ErrBudgetExceeded)
}

// Unwrap places the error in the budget family for errors.Is.
func (e *DepthError) Unwrap() error { return ErrBudgetExceeded }
