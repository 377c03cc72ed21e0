package qof

// Resilient execution: context-aware variants of the facade's indexing and
// query entry points, per-query resource budgets, and panic isolation.
//
// Every operation here is cooperative — cancellation and deadlines are
// polled inside the region kernels and per parsed candidate, so they take
// effect mid-evaluation, not just between queries — and fail-safe: a failed
// or abandoned execution never publishes cache entries and always leaves
// the File or Corpus fully usable. See docs/ROBUSTNESS.md for the contract.

import (
	"context"
	"fmt"
	"time"

	"qof/internal/algebra"
	"qof/internal/engine"
	"qof/internal/qerr"
	"qof/internal/text"
)

// ErrBudgetExceeded is returned (wrapped) when a query exceeds a resource
// budget set with WithMaxRegions or WithMaxEvalBytes. Cancellation and
// deadlines surface as context.Canceled and context.DeadlineExceeded.
var ErrBudgetExceeded = qerr.ErrBudgetExceeded

// ErrInternal is returned (wrapped) when a panic was recovered at an API
// boundary. The engine remains usable; the error carries the panic value
// and, for queries, the expression being evaluated.
var ErrInternal = qerr.ErrInternal

// queryConfig collects the effects of QueryOptions.
type queryConfig struct {
	lim         engine.Limits
	fileTimeout time.Duration
	partial     bool
}

// QueryOption configures a single query execution (QueryContext,
// ExecuteContext).
type QueryOption func(*queryConfig)

func applyQueryOptions(opts []QueryOption) queryConfig {
	var cfg queryConfig
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithMaxRegions caps the cumulative number of regions the index evaluation
// (phase 1) may produce for this query; exceeding it fails the query with
// an error wrapping ErrBudgetExceeded. n < 1 means unlimited.
func WithMaxRegions(n int) QueryOption {
	return func(c *queryConfig) { c.lim.MaxRegions = n }
}

// WithMaxEvalBytes caps the document bytes parsed in phase 2 (full scans
// included) for this query; exceeding it fails the query with an error
// wrapping ErrBudgetExceeded. n < 1 means unlimited.
func WithMaxEvalBytes(n int) QueryOption {
	return func(c *queryConfig) { c.lim.MaxEvalBytes = n }
}

// WithFileTimeout bounds each file's evaluation separately in a corpus
// query: a file exceeding it fails with context.DeadlineExceeded while the
// other files run to completion. It has no effect on single-file queries
// (use a context deadline there).
func WithFileTimeout(d time.Duration) QueryOption {
	return func(c *queryConfig) { c.fileTimeout = d }
}

// WithPartialResults makes a corpus query degrade instead of failing:
// files whose evaluation errors are reported in CorpusResults.Degraded
// with attribution, and the remaining files' results are returned.
func WithPartialResults() QueryOption {
	return func(c *queryConfig) { c.partial = true }
}

// catchPanic converts a panic crossing an API boundary into an error
// wrapping ErrInternal, annotated with what was being evaluated. Use as
// `defer catchPanic(&err, "querying %q", src)`.
func catchPanic(err *error, format string, args ...any) {
	if p := recover(); p != nil {
		*err = fmt.Errorf("qof: %s: panic: %v: %w", fmt.Sprintf(format, args...), p, qerr.ErrInternal)
	}
}

// IndexContext is Index under a context: the parse and index build check
// cancellation at stage boundaries, so an abandoned build stops promptly.
func (s *Schema) IndexContext(ctx context.Context, name, content string, opts ...IndexOption) (f *File, err error) {
	defer catchPanic(&err, "indexing %s", name)
	spec := applyOptions(opts)
	in, _, err := s.cat.Grammar.BuildInstanceContext(ctx, text.NewDocument(name, content), spec)
	if err != nil {
		return nil, err
	}
	return &File{schema: s, eng: engine.New(s.cat, in), spec: spec}, nil
}

// QueryContext is Query under a context and per-query resource budgets.
// Cancellation and deadlines take effect mid-evaluation (the engine polls
// inside its kernels and per parsed candidate); budget violations wrap
// ErrBudgetExceeded. A failed query is never cached and leaves the File
// fully usable.
func (f *File) QueryContext(ctx context.Context, src string, opts ...QueryOption) (res *Results, err error) {
	defer catchPanic(&err, "querying %q", src)
	cfg := applyQueryOptions(opts)
	p, err := f.schema.cat.Prepare(src)
	if err != nil {
		return nil, err
	}
	r, err := f.eng.ExecutePrepared(ctx, p, cfg.lim)
	if err != nil {
		return nil, err
	}
	return convertResults(f.eng, r), nil
}

// EvalContext is Eval under a context: the region-algebra evaluation polls
// cancellation inside its kernels.
func (f *File) EvalContext(ctx context.Context, src string) (spans []Span, err error) {
	defer catchPanic(&err, "evaluating %q", src)
	e, err := algebra.Parse(src)
	if err != nil {
		return nil, err
	}
	var st algebra.Stats
	set, err := algebra.NewEvaluator(f.eng.Instance()).EvalContext(ctx, e, &st, nil)
	if err != nil {
		return nil, err
	}
	doc := f.eng.Instance().Document()
	spans = make([]Span, 0, set.Len())
	for _, r := range set.Regions() {
		spans = append(spans, spanOf(doc, r))
	}
	return spans, nil
}
