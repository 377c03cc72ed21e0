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
	"sort"
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
	doc := text.NewDocument(name, content)
	in, _, err := s.cat.Grammar.BuildInstanceContext(ctx, doc, applyOptions(opts))
	if err != nil {
		return nil, err
	}
	return &File{schema: s, eng: engine.New(s.cat, in)}, nil
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

// AddAllContext is Corpus.AddAll under a context: cancellation is checked
// before and inside every document build. Every failing document is
// reported in the joined error with attribution; on any failure nothing is
// added.
func (c *Corpus) AddAllContext(ctx context.Context, files map[string]string, opts ...IndexOption) (err error) {
	defer catchPanic(&err, "adding %d files", len(files))
	return c.c.AddAllContext(ctx, sortedDocs(files), applyOptions(opts))
}

// Reindex returns a new corpus over files, indexed as AddAllContext would
// index them into an empty corpus — except that a file of c whose name and
// content are unchanged, and which was indexed under the same options, keeps
// its index, result cache and statistics instead of being indexed again. It
// reports how many files it indexed; the rest are shared with c. c is never
// changed; on error Reindex returns no corpus and one attributed error per
// failed file.
func (c *Corpus) Reindex(ctx context.Context, files map[string]string, opts ...IndexOption) (out *Corpus, built int, err error) {
	defer catchPanic(&err, "reindexing %d files", len(files))
	ec, built, err := c.c.Reindex(ctx, sortedDocs(files), applyOptions(opts))
	if err != nil {
		return nil, built, err
	}
	return &Corpus{schema: c.schema, c: ec}, built, nil
}

// sortedDocs makes the documents of files in name order.
func sortedDocs(files map[string]string) []*text.Document {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	docs := make([]*text.Document, len(names))
	for i, name := range names {
		docs[i] = text.NewDocument(name, files[name])
	}
	return docs
}

// FileError attributes a failure to one corpus file.
type FileError struct {
	File string
	Err  error
}

// CorpusStats aggregates execution statistics over the files of a corpus
// query. Every field is partition-invariant: splitting the same files
// across several corpora and summing per-corpus stats yields the same
// totals as one corpus holding them all.
type CorpusStats struct {
	// Results is the total number of result rows across files.
	Results int
	// Candidates is the total number of candidate regions phase 1 produced.
	Candidates int
	// Parsed is the total number of regions parsed in phase 2.
	Parsed int
	// ParsedBytes is the total number of document bytes parsed.
	ParsedBytes int
	// Exact reports that at least one file's answer needed no filtering.
	Exact bool
	// FullScan reports that the index offered no narrowing on some file.
	FullScan bool
}

// CorpusResults is the outcome of a corpus query run with ExecuteContext.
type CorpusResults struct {
	// Hits lists the files with at least one result, in corpus order.
	Hits []CorpusHit
	// Degraded lists files whose evaluation failed, when the query ran
	// with WithPartialResults; Hits then covers only the files that
	// succeeded. Empty means the result is complete.
	Degraded []FileError
	// Stats aggregates execution statistics over the files that succeeded.
	Stats CorpusStats
}

// DegradedError joins the per-file failures into one attributed error, or
// nil when the result is complete. errors.Is matches each underlying cause
// (context.DeadlineExceeded, ErrBudgetExceeded, ...).
func (r *CorpusResults) DegradedError() error {
	if len(r.Degraded) == 0 {
		return nil
	}
	er := &engine.CorpusResult{}
	for _, f := range r.Degraded {
		er.Degraded = append(er.Degraded, engine.FileFailure{File: f.File, Err: f.Err})
	}
	return er.DegradedError()
}

// ExecuteContext is Corpus.Query under a context and per-query options.
// Canceling ctx stops every file's evaluation at its next poll point;
// WithFileTimeout bounds each file separately; WithPartialResults degrades
// to attributed partial results instead of failing. Without partial mode, a
// failure in any file fails the call with one joined error naming every
// failed file.
func (c *Corpus) ExecuteContext(ctx context.Context, src string, opts ...QueryOption) (out *CorpusResults, err error) {
	defer catchPanic(&err, "querying %q", src)
	cfg := applyQueryOptions(opts)
	p, err := c.schema.cat.Prepare(src)
	if err != nil {
		return nil, err
	}
	res, err := c.c.ExecutePrepared(ctx, p, engine.ExecOptions{
		Limits:      cfg.lim,
		FileTimeout: cfg.fileTimeout,
		Partial:     cfg.partial,
	})
	if res == nil {
		return nil, err
	}
	out = &CorpusResults{Stats: CorpusStats{
		Results:     res.Stats.Results,
		Candidates:  res.Stats.Candidates,
		Parsed:      res.Stats.Parsed,
		ParsedBytes: res.Stats.ParsedBytes,
		Exact:       res.Stats.Exact,
		FullScan:    res.Stats.FullScan,
	}}
	for _, h := range res.Hits {
		hit := CorpusHit{File: h.File, Values: append([]string(nil), h.Strings...)}
		for _, r := range h.Regions.Regions() {
			hit.Spans = append(hit.Spans, Span{Start: int(r.Start), End: int(r.End)})
		}
		out.Hits = append(out.Hits, hit)
	}
	for _, f := range res.Degraded {
		out.Degraded = append(out.Degraded, FileError{File: f.File, Err: f.Err})
	}
	return out, err
}
