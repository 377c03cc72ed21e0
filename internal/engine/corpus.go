package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"qof/internal/compile"
	"qof/internal/faultinject"
	"qof/internal/grammar"
	"qof/internal/index"
	"qof/internal/pool"
	"qof/internal/region"
	"qof/internal/text"
	"qof/internal/xsql"
)

// Corpus evaluates queries over many files sharing one structuring schema —
// the paper's actual setting ("a multitude of bibliographic files ... all
// of the members may share access"). Each file carries its own index
// instance; a query runs against every file and the results are merged,
// so only the candidate regions of each file are ever parsed.
type Corpus struct {
	cat     *compile.Catalog
	engines []*Engine
}

// NewCorpus creates an empty corpus over the catalog.
func NewCorpus(cat *compile.Catalog) *Corpus {
	return &Corpus{cat: cat}
}

// Add indexes a document per spec and adds it to the corpus.
func (c *Corpus) Add(doc *text.Document, spec grammar.IndexSpec) error {
	in, _, err := c.cat.Grammar.BuildInstance(doc, spec)
	if err != nil {
		return fmt.Errorf("engine: indexing %s: %w", doc.Name(), err)
	}
	c.engines = append(c.engines, newIndexed(c.cat, in, spec))
	return nil
}

// newIndexed makes the engine of an instance indexed under spec.
func newIndexed(cat *compile.Catalog, in *index.Instance, spec grammar.IndexSpec) *Engine {
	e := New(cat, in)
	e.spec = spec
	return e
}

// AddAll indexes the documents and adds them to the corpus in the given
// order. The per-document index builds (parse, region extraction, word
// index, statistics) run on the caller and on idle helpers (package pool)
// — they are independent per file — but the corpus always ends up
// identical to sequential Adds: engines are appended in document order,
// and on error the corpus is left unchanged. Every failing file is
// reported, not just the first: the returned error joins one attributed
// error per failed document (errors.Is still matches each underlying
// cause).
func (c *Corpus) AddAll(docs []*text.Document, spec grammar.IndexSpec) error {
	return c.AddAllContext(context.Background(), docs, spec)
}

// AddAllContext is AddAll under a context. Cancellation is checked before
// every document build (and inside each build, at its stage boundaries), so
// a canceled bulk ingest stops promptly; the corpus is left unchanged
// whenever any document fails. A panic while indexing one document is
// isolated and reported as that document's error, wrapping qerr.ErrInternal.
func (c *Corpus) AddAllContext(ctx context.Context, docs []*text.Document, spec grammar.IndexSpec) error {
	engines := make([]*Engine, len(docs))
	if _, err := c.indexInto(ctx, engines, docs, spec); err != nil {
		return err
	}
	c.engines = append(c.engines, engines...)
	return nil
}

// Reindex returns a new corpus over docs, in the given order, as
// AddAllContext would build it on an empty corpus — except that a document
// whose name and content equal a file of c indexed under the same spec
// keeps that file's engine (its index, result cache and
// statistics) instead of being indexed again. It reports how many documents
// it indexed. c is never changed; on error it returns no corpus and the
// joined, per-document attributed error.
func (c *Corpus) Reindex(ctx context.Context, docs []*text.Document, spec grammar.IndexSpec) (*Corpus, int, error) {
	old := make(map[string]*Engine, len(c.engines))
	for _, e := range c.engines {
		old[e.in.Document().Name()] = e
	}
	engines := make([]*Engine, len(docs))
	for i, d := range docs {
		if e := old[d.Name()]; e != nil && sameSpec(e.spec, spec) && e.in.Document().Content() == d.Content() {
			engines[i] = e
		}
	}
	built, err := c.indexInto(ctx, engines, docs, spec)
	if err != nil {
		return nil, built, err
	}
	return &Corpus{cat: c.cat, engines: engines}, built, nil
}

// indexInto builds the engine of every document whose slot in engines is
// nil, in one fan-out, and reports how many it built. Its error is
// AddAllContext's: one attributed error per failed document.
func (c *Corpus) indexInto(ctx context.Context, engines []*Engine, docs []*text.Document, spec grammar.IndexSpec) (int, error) {
	var todo []int
	for i, e := range engines {
		if e == nil {
			todo = append(todo, i)
		}
	}
	errs := pool.Each(len(todo), func(k int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		in, _, err := c.cat.Grammar.BuildInstanceContext(ctx, docs[todo[k]], spec)
		if err != nil {
			return err
		}
		engines[todo[k]] = newIndexed(c.cat, in, spec)
		return nil
	})
	for k, err := range errs {
		if err != nil {
			errs[k] = fmt.Errorf("engine: indexing %s: %w", docs[todo[k]].Name(), err)
		}
	}
	return len(todo), errors.Join(errs...)
}

// sameSpec reports whether two index specs name the same regions.
func sameSpec(a, b grammar.IndexSpec) bool {
	return slices.Equal(a.Names, b.Names) && slices.Equal(a.Scoped, b.Scoped)
}

// Len reports the number of files in the corpus.
func (c *Corpus) Len() int { return len(c.engines) }

// FileHit is one file's contribution to a corpus result.
type FileHit struct {
	File    string
	Regions region.Set
	Strings []string
	Stats   Stats
}

// FileFailure attributes one file's failure within a degraded corpus
// result.
type FileFailure struct {
	File string
	Err  error
}

// CorpusResult is the merged outcome of a corpus query.
type CorpusResult struct {
	Hits      []FileHit // files with at least one result, in corpus order
	Projected bool
	Stats     Stats // aggregated over every file

	// Degraded lists the files whose evaluation failed when the query ran
	// with ExecOptions.Partial; Hits and Stats then cover only the files
	// that succeeded. Empty means the result is complete.
	Degraded []FileFailure
}

// DegradedError joins the per-file failures of a degraded result into one
// error with file attribution, or nil when the result is complete.
// errors.Is matches each underlying cause (e.g. context.DeadlineExceeded).
func (r *CorpusResult) DegradedError() error {
	if len(r.Degraded) == 0 {
		return nil
	}
	errs := make([]error, len(r.Degraded))
	for i, f := range r.Degraded {
		errs[i] = fmt.Errorf("%s: %w", f.File, f.Err)
	}
	return errors.Join(errs...)
}

// Results reports the total number of results across files.
func (r *CorpusResult) Results() int { return r.Stats.Results }

// AllStrings concatenates projected strings across files.
func (r *CorpusResult) AllStrings() []string {
	var out []string
	for _, h := range r.Hits {
		out = append(out, h.Strings...)
	}
	return out
}

// ExecOptions configure a corpus execution beyond the query itself. The
// zero value means no budgets, no per-file timeout, all-or-nothing error
// reporting.
type ExecOptions struct {
	// Limits applies per-file resource budgets (each file's engine gets
	// its own budget, since files are evaluated independently).
	Limits Limits
	// FileTimeout bounds each file's evaluation separately; a file that
	// exceeds it fails with context.DeadlineExceeded while the others run
	// to completion. 0 means no per-file deadline.
	FileTimeout time.Duration
	// Partial degrades instead of failing: files whose evaluation errors
	// are recorded in CorpusResult.Degraded with attribution and the
	// remaining files are merged normally. Without Partial, any failure
	// makes the whole Execute fail (reporting every failed file, joined).
	Partial bool
}

// Execute runs the query against every file (on the caller and on idle
// helpers), merging the per-file results in corpus order. Queries with
// several range variables range over objects of the same file (cross-file
// joins are out of scope, as in the paper).
func (c *Corpus) Execute(q *xsql.Query) (*CorpusResult, error) {
	return c.ExecuteContext(context.Background(), q, ExecOptions{})
}

// ExecuteContext is ExecutePrepared on the catalog's prepared form of q.
func (c *Corpus) ExecuteContext(ctx context.Context, q *xsql.Query, opts ExecOptions) (*CorpusResult, error) {
	return c.ExecutePrepared(ctx, c.cat.PrepareQuery(q), opts)
}

// ExecutePrepared runs a prepared query of the corpus's catalog against
// every file under a context and per-file execution options. Canceling ctx
// stops every file's evaluation at its next poll point. A panic while
// evaluating one file is isolated to that file's error (wrapping
// qerr.ErrInternal); the corpus and its engines stay usable. When any file
// fails without opts.Partial, the returned error joins one attributed error
// per failed file.
func (c *Corpus) ExecutePrepared(ctx context.Context, p *compile.Prepared, opts ExecOptions) (*CorpusResult, error) {
	results := make([]*Result, len(c.engines))
	errs := pool.Each(len(c.engines), func(i int) (err error) {
		if err := faultinject.Hit(faultinject.CorpusFile); err != nil {
			return err
		}
		fctx := ctx
		if opts.FileTimeout > 0 {
			var cancel context.CancelFunc
			fctx, cancel = context.WithTimeout(ctx, opts.FileTimeout)
			defer cancel()
		}
		results[i], err = c.engines[i].ExecutePrepared(fctx, p, opts.Limits)
		return err
	})
	out := &CorpusResult{}
	var failed []error
	for i, eng := range c.engines {
		name := eng.Instance().Document().Name()
		if errs[i] != nil {
			if opts.Partial {
				out.Degraded = append(out.Degraded, FileFailure{File: name, Err: errs[i]})
			} else {
				failed = append(failed, fmt.Errorf("engine: %s: %w", name, errs[i]))
			}
			continue
		}
		res := results[i]
		out.Projected = res.Projected
		st := res.Stats
		out.Stats.Candidates += st.Candidates
		out.Stats.Parsed += st.Parsed
		out.Stats.ParsedBytes += st.ParsedBytes
		out.Stats.Results += st.Results
		out.Stats.Exact = out.Stats.Exact || st.Exact
		out.Stats.FullScan = out.Stats.FullScan || st.FullScan
		out.Stats.PlanCached = out.Stats.PlanCached || st.PlanCached
		out.Stats.ResultCached = out.Stats.ResultCached || st.ResultCached
		out.Stats.ResultCacheHits += st.ResultCacheHits
		if st.Results == 0 {
			continue
		}
		out.Hits = append(out.Hits, FileHit{
			File:    name,
			Regions: res.Regions,
			Strings: res.Strings,
			Stats:   st,
		})
	}
	if len(failed) > 0 {
		return nil, errors.Join(failed...)
	}
	if opts.Partial {
		// The caller still learns the whole call was cut short: a done
		// parent context is reported alongside whatever completed.
		if err := ctx.Err(); err != nil {
			return out, err
		}
	}
	return out, nil
}
