package qof

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"qof/internal/compile"
	"qof/internal/engine"
	"qof/internal/faultinject"
	"qof/internal/pool"
)

// Corpus evaluates queries over many files sharing one structuring schema —
// the paper's actual setting ("a multitude of bibliographic files ... all
// of the members may share access"). Each file carries its own index
// instance; a query runs against every file and the results are merged,
// so only the candidate regions of each file are ever parsed. The Corpus is
// safe for concurrent queries once every file is added.
type Corpus struct {
	schema *Schema
	files  []*File // in the order added
}

// NewCorpus creates an empty corpus.
func (s *Schema) NewCorpus() *Corpus {
	return &Corpus{schema: s}
}

// Add indexes a document and adds it to the corpus.
func (c *Corpus) Add(name, content string, opts ...IndexOption) error {
	f, err := c.schema.IndexContext(context.Background(), name, content, opts...)
	if err != nil {
		return fmt.Errorf("engine: indexing %s: %w", name, err)
	}
	c.files = append(c.files, f)
	return nil
}

// AddAll indexes the named documents and adds them to the corpus in name
// order. The index builds run on the caller and on idle helpers; the result
// is identical to sequential Adds. On error nothing is added, and the
// returned error joins one attributed error per failed document.
func (c *Corpus) AddAll(files map[string]string, opts ...IndexOption) error {
	return c.AddAllContext(context.Background(), files, opts...)
}

// AddAllContext is AddAll under a context: cancellation is checked before
// and inside every document build. Every failing document is reported in
// the joined error with attribution; on any failure nothing is added.
func (c *Corpus) AddAllContext(ctx context.Context, files map[string]string, opts ...IndexOption) (err error) {
	defer catchPanic(&err, "adding %d files", len(files))
	names := sortedNames(files)
	built := make([]*File, len(names))
	if _, err := c.indexInto(ctx, built, names, files, opts); err != nil {
		return err
	}
	c.files = append(c.files, built...)
	return nil
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
	spec := applyOptions(opts)
	old := make(map[string]*File, len(c.files))
	for _, f := range c.files {
		old[f.Name()] = f
	}
	names := sortedNames(files)
	next := make([]*File, len(names))
	for i, name := range names {
		if f := old[name]; f != nil && f.Content() == files[name] &&
			slices.Equal(f.spec.Names, spec.Names) && slices.Equal(f.spec.Scoped, spec.Scoped) {
			next[i] = f
		}
	}
	if built, err = c.indexInto(ctx, next, names, files, opts); err != nil {
		return nil, built, err
	}
	return &Corpus{schema: c.schema, files: next}, built, nil
}

// indexInto indexes, in one fan-out, the named file of every slot of out
// that is nil, and reports how many it indexed. Its error joins one
// attributed error per failed file.
func (c *Corpus) indexInto(ctx context.Context, out []*File, names []string, files map[string]string, opts []IndexOption) (int, error) {
	var todo []int
	for i, f := range out {
		if f == nil {
			todo = append(todo, i)
		}
	}
	errs := pool.Each(len(todo), func(k int) (err error) {
		if err := ctx.Err(); err != nil {
			return err
		}
		name := names[todo[k]]
		out[todo[k]], err = c.schema.IndexContext(ctx, name, files[name], opts...)
		return err
	})
	for k, err := range errs {
		if err != nil {
			errs[k] = fmt.Errorf("engine: indexing %s: %w", names[todo[k]], err)
		}
	}
	return len(todo), errors.Join(errs...)
}

// sortedNames lists the names of files in order.
func sortedNames(files map[string]string) []string {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// CorpusHit is one file's results.
type CorpusHit struct {
	File   string
	Spans  []Span
	Values []string
}

// FileError attributes a failure to one corpus file.
type FileError struct {
	File string
	Err  error
}

// CorpusStats aggregates execution statistics over the files of a corpus
// query: each count is the sum over the files, each flag is set when it is
// set on some file.
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
	errs := make([]error, len(r.Degraded))
	for i, f := range r.Degraded {
		errs[i] = fmt.Errorf("%s: %w", f.File, f.Err)
	}
	return errors.Join(errs...)
}

// Query runs the query against every file and merges the outcomes.
func (c *Corpus) Query(src string) ([]CorpusHit, error) {
	res, err := c.ExecuteContext(context.Background(), src)
	if err != nil {
		return nil, err
	}
	return res.Hits, nil
}

// ExecuteContext is Query under a context and per-query options. The query
// is prepared once and runs against every file on the caller and on idle
// helpers; the per-file results are merged in corpus order. Queries with
// several range variables range over objects of the same file (cross-file
// joins are out of scope, as in the paper). Canceling ctx stops every
// file's evaluation at its next poll point; WithFileTimeout bounds each file
// separately; WithPartialResults degrades to attributed partial results
// instead of failing, and then reports a done ctx alongside whatever
// completed. Without partial mode, a failure in any file fails the call with
// one joined error naming every failed file. A panic while evaluating one
// file is isolated to that file's error (wrapping ErrInternal).
func (c *Corpus) ExecuteContext(ctx context.Context, src string, opts ...QueryOption) (out *CorpusResults, err error) {
	defer catchPanic(&err, "querying %q", src)
	cfg := applyQueryOptions(opts)
	p, err := c.schema.cat.Prepare(src)
	if err != nil {
		return nil, err
	}
	results, errs := c.run(ctx, p, cfg)
	out = &CorpusResults{}
	st := &out.Stats
	var failed []error
	for i, f := range c.files {
		if errs[i] != nil {
			if cfg.partial {
				out.Degraded = append(out.Degraded, FileError{File: f.Name(), Err: errs[i]})
			} else {
				failed = append(failed, fmt.Errorf("engine: %s: %w", f.Name(), errs[i]))
			}
			continue
		}
		res := results[i]
		st.Results += res.Stats.Results
		st.Candidates += res.Stats.Candidates
		st.Parsed += res.Stats.Parsed
		st.ParsedBytes += res.Stats.ParsedBytes
		st.Exact = st.Exact || res.Stats.Exact
		st.FullScan = st.FullScan || res.Stats.FullScan
		if res.Stats.Results == 0 {
			continue
		}
		// The engine builds Strings for this call alone: the hit takes it.
		hit := CorpusHit{File: f.Name(), Values: res.Strings}
		if rs := res.Regions.Regions(); len(rs) > 0 {
			hit.Spans = make([]Span, len(rs))
			for i, r := range rs {
				hit.Spans[i] = Span{Start: int(r.Start), End: int(r.End)}
			}
		}
		out.Hits = append(out.Hits, hit)
	}
	if len(failed) > 0 {
		return nil, errors.Join(failed...)
	}
	if cfg.partial {
		return out, ctx.Err()
	}
	return out, nil
}

// run executes the prepared query on every file, on the caller and on idle
// helpers, and returns each file's result or error in corpus order.
func (c *Corpus) run(ctx context.Context, p *compile.Prepared, cfg queryConfig) ([]*engine.Result, []error) {
	results := make([]*engine.Result, len(c.files))
	errs := pool.Each(len(c.files), func(i int) (err error) {
		if err := faultinject.Hit(faultinject.CorpusFile); err != nil {
			return err
		}
		fctx := ctx
		if cfg.fileTimeout > 0 {
			var cancel context.CancelFunc
			fctx, cancel = context.WithTimeout(ctx, cfg.fileTimeout)
			defer cancel()
		}
		results[i], err = c.files[i].eng.ExecutePrepared(fctx, p, cfg.lim)
		return err
	})
	return results, errs
}
