package qof

// The public API: a thin facade over the internal packages, so that a
// downstream user can define a structuring schema, index files, and query
// them without touching internals.
//
//	schema, _ := qof.BibTeX()
//	file, _ := schema.Index("refs.bib", content)
//	res, _ := file.Query(`SELECT r.Key FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`)

import (
	"context"
	"fmt"
	"io"

	"qof/internal/advisor"
	"qof/internal/bibtex"
	"qof/internal/compile"
	"qof/internal/engine"
	"qof/internal/grammar"
	"qof/internal/index"
	"qof/internal/logs"
	"qof/internal/region"
	"qof/internal/sgml"
	"qof/internal/srccode"
	"qof/internal/text"
	"qof/internal/xsql"
)

// Schema couples a structuring schema (grammar + database mapping) with its
// class bindings; it is the entry point for indexing and querying files of
// one format.
type Schema struct {
	cat *compile.Catalog
}

// BibTeX returns the built-in bibliography schema (class References).
func BibTeX() *Schema { return &Schema{cat: bibtex.Catalog()} }

// Logs returns the built-in server-log schema (class Entries).
func Logs() *Schema { return &Schema{cat: logs.Catalog()} }

// SGML returns the built-in nested-document schema (classes Docs, Sections).
func SGML() *Schema { return &Schema{cat: sgml.Catalog()} }

// SourceCode returns the built-in source-code schema (class Decls).
func SourceCode() *Schema { return &Schema{cat: srccode.Catalog()} }

// RIG renders the schema's region inclusion graph, one "A -> B" line per
// possible direct inclusion.
func (s *Schema) RIG() string { return s.cat.RIG.String() }

// Prepare checks that src is a well-formed query and readies it for every
// File and Corpus of the schema, which then run the same text without parsing
// or compiling it again: for a caller that validates once and runs in many
// places, as the serving layer does. (Query prepares what it is given.)
func (s *Schema) Prepare(src string) error {
	_, err := s.cat.Prepare(src)
	return err
}

// indexConfig collects the effects of IndexOptions: the indexing choice.
type indexConfig struct {
	spec grammar.IndexSpec
}

// IndexOption configures Index, Load and a corpus's Add, AddAll and
// Reindex.
type IndexOption func(*indexConfig)

// applyOptions collects opts into the index spec they choose.
func applyOptions(opts []IndexOption) grammar.IndexSpec {
	var cfg indexConfig
	for _, o := range opts {
		o(&cfg)
	}
	return cfg.spec
}

// WithRegions restricts indexing to the given region names (partial
// indexing); the default indexes every non-terminal.
func WithRegions(names ...string) IndexOption {
	return func(c *indexConfig) { c.spec.Names = append(c.spec.Names, names...) }
}

// WithScopedRegion selectively indexes name only inside within regions.
func WithScopedRegion(name, within string) IndexOption {
	return func(c *indexConfig) {
		c.spec.Scoped = append(c.spec.Scoped, grammar.ScopedName{Name: name, Within: within})
	}
}

// File is an indexed document ready for querying.
type File struct {
	schema *Schema
	eng    *engine.Engine
	spec   grammar.IndexSpec // the options it was indexed under, for Corpus.Reindex
}

// Index parses and indexes a document held in memory. The returned File is
// safe for concurrent queries.
func (s *Schema) Index(name, content string, opts ...IndexOption) (*File, error) {
	return s.IndexContext(context.Background(), name, content, opts...)
}

// Load re-attaches a persisted index (written by Save) to the document
// content, verifying it has not changed. Indexing-choice options are
// ignored: the persisted index fixes them.
func (s *Schema) Load(r io.Reader, name, content string, opts ...IndexOption) (f *File, err error) {
	defer catchPanic(&err, "loading %s", name)
	in, err := index.Load(r, text.NewDocument(name, content))
	if err != nil {
		return nil, err
	}
	return &File{schema: s, eng: engine.New(s.cat, in)}, nil
}

// Save persists the file's indexes.
func (f *File) Save(w io.Writer) (err error) {
	defer catchPanic(&err, "saving %s", f.Name())
	return f.eng.Instance().Save(w)
}

// Name returns the document name.
func (f *File) Name() string { return f.eng.Instance().Document().Name() }

// Span is a region of the document with its text.
type Span struct {
	Start, End int
	Text       string
}

// Stats summarizes how a query executed.
type Stats struct {
	// Candidates is the number of candidate regions the index produced.
	Candidates int
	// Parsed is the number of regions parsed (0 for index-only answers).
	Parsed int
	// ParsedBytes is the number of document bytes parsed.
	ParsedBytes int
	// Exact reports that the index computed the answer with no filtering.
	Exact bool
	// FullScan reports that the index offered no narrowing.
	FullScan bool
	// PlanCached reports that the compiled plan came from the plan cache
	// (a repeat query skipped parse, compile and optimize).
	PlanCached bool
}

// Results is a query outcome: whole-object selects fill Spans, projections
// fill Values.
type Results struct {
	Spans  []Span
	Values []string
	Stats  Stats

	plan *compile.Plan // what Explain renders when asked
}

// Len reports the number of results.
func (r *Results) Len() int {
	if r.Values != nil {
		return len(r.Values)
	}
	return len(r.Spans)
}

// Explain renders the query plan (candidate expressions, rewrites applied,
// exactness classification).
func (r *Results) Explain() string {
	if r.plan == nil {
		return ""
	}
	return r.plan.Explain()
}

// Query runs an XSQL query (see the xsql package comment for the dialect)
// against the file.
func (f *File) Query(src string) (*Results, error) {
	return f.QueryContext(context.Background(), src)
}

func convertResults(eng *engine.Engine, res *engine.Result) *Results {
	doc := eng.Instance().Document()
	out := &Results{plan: res.Plan}
	out.Stats = Stats{
		Candidates:  res.Stats.Candidates,
		Parsed:      res.Stats.Parsed,
		ParsedBytes: res.Stats.ParsedBytes,
		Exact:       res.Stats.Exact,
		FullScan:    res.Stats.FullScan,
		PlanCached:  res.Stats.PlanCached,
	}
	if res.Projected {
		out.Values = append([]string(nil), res.Strings...)
		return out
	}
	for _, r := range res.Regions.Regions() {
		out.Spans = append(out.Spans, spanOf(doc, r))
	}
	return out
}

// spanOf is the public form of a region of doc: offsets widen to int.
func spanOf(doc *text.Document, r region.Region) Span {
	return Span{Start: int(r.Start), End: int(r.End), Text: doc.Slice(int(r.Start), int(r.End))}
}

// Eval evaluates a raw region-algebra expression (see the algebra package
// comment for the syntax) and returns the matching spans.
func (f *File) Eval(src string) ([]Span, error) {
	return f.EvalContext(context.Background(), src)
}

// Replace applies an in-place edit: the span (which must be an indexed
// region of the given name) is replaced by newText, re-parsing only the
// replacement. It returns the updated file; the receiver is unchanged.
func (f *File) Replace(regionName string, span Span, newText string) (*File, error) {
	return f.edited(span, func(r region.Region) (*index.Instance, error) {
		return engine.ReplaceRegion(f.schema.cat, f.eng.Instance(), regionName, r, newText)
	})
}

// InsertAfter inserts newText (a complete occurrence of regionName's
// format) immediately after the span, parsing only the insertion.
func (f *File) InsertAfter(regionName string, span Span, newText string) (*File, error) {
	return f.edited(span, func(r region.Region) (*index.Instance, error) {
		return engine.InsertAfter(f.schema.cat, f.eng.Instance(), regionName, r, newText)
	})
}

// Delete removes the span (an indexed region of regionName) without any
// re-parsing.
func (f *File) Delete(regionName string, span Span) (*File, error) {
	return f.edited(span, func(r region.Region) (*index.Instance, error) {
		return engine.DeleteRegion(f.schema.cat, f.eng.Instance(), regionName, r)
	})
}

// edited is the file after edit, applied to the span's region.
func (f *File) edited(span Span, edit func(region.Region) (*index.Instance, error)) (*File, error) {
	r, err := f.regionOf(span)
	if err != nil {
		return nil, err
	}
	in, err := edit(r)
	if err != nil {
		return nil, err
	}
	return &File{schema: f.schema, eng: engine.New(f.schema.cat, in), spec: f.spec}, nil
}

// Content returns the file's current text.
func (f *File) Content() string { return f.eng.Instance().Document().Content() }

// Advise recommends which regions to index so the given query workload is
// fully computed by the indexing engine (Section 7 of the paper). It
// returns the recommended region names and a human-readable report.
func (s *Schema) Advise(queries ...string) ([]string, string, error) {
	var parsed []*xsql.Query
	for _, src := range queries {
		p, err := s.cat.Prepare(src)
		if err != nil {
			return nil, "", fmt.Errorf("qof: query %q: %w", src, err)
		}
		parsed = append(parsed, p.Query)
	}
	rec, err := advisor.Recommend(s.cat, parsed)
	if err != nil {
		return nil, "", err
	}
	return rec.Names, rec.String(), nil
}

// regionOf narrows a caller's span to a region of the file. A span outside
// [0, Len] is refused before the narrowing, which would otherwise wrap an
// offset past math.MaxInt32 onto a real region.
func (f *File) regionOf(s Span) (region.Region, error) {
	if n := f.eng.Instance().Document().Len(); s.Start < 0 || s.End > n || s.Start > s.End {
		return region.Region{}, fmt.Errorf("qof: span [%d,%d) is not within the file's %d bytes", s.Start, s.End, n)
	}
	return region.Of(s.Start, s.End), nil
}
