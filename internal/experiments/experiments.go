// Package experiments implements the reproduction harness: one function per
// experiment in EXPERIMENTS.md, each regenerating the corresponding table
// from scratch (workload generation, indexing, query execution, baselines,
// timing). The qofbench command prints the tables; the repository-level
// benchmarks reuse the same setups under testing.B.
//
// Timing methodology: every measured cell is the median of Repeats runs of
// the operation on prebuilt inputs (indexes are built once, as the paper
// assumes the PAT system maintains them); index build costs are reported
// separately where the experiment is about them.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"qof/internal/bibtex"
	"qof/internal/compile"
	"qof/internal/engine"
	"qof/internal/grammar"
	"qof/internal/index"
	"qof/internal/region"
	"qof/internal/sgml"
	"qof/internal/text"
	"qof/internal/xsql"
)

// Options tunes experiment scale.
type Options struct {
	// Sizes are the corpus sizes (references / entries) for size sweeps.
	Sizes []int
	// Repeats is the number of timed runs per cell (median reported).
	Repeats int
}

// Default returns the standard options used by EXPERIMENTS.md.
func Default() Options {
	return Options{Sizes: []int{1000, 5000, 20000}, Repeats: 5}
}

// Quick returns reduced options for smoke runs and tests.
func Quick() Options {
	return Options{Sizes: []int{200, 1000}, Repeats: 3}
}

// Table is one regenerated result table.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Experiment is a runnable experiment.
type Experiment struct {
	ID    string
	Name  string
	Run   func(Options) (*Table, error)
	Bench bool // has a corresponding testing.B benchmark
}

// All lists every experiment in order.
func All() []Experiment {
	return []Experiment{
		{ID: "e1", Name: "index evaluation vs full-scan DB vs grep", Run: E1},
		{ID: "e2", Name: "optimized vs unoptimized inclusion expressions", Run: E2},
		{ID: "e3", Name: "cost of direct inclusion vs plain inclusion", Run: E3},
		{ID: "e4", Name: "partial indexing: candidates and parsing effort", Run: E4},
		{ID: "e5", Name: "exact answers under partial indexing (Section 6.3)", Run: E5},
		{ID: "e6", Name: "path variables: star translation vs enumeration", Run: E6},
		{ID: "e7", Name: "value joins with index-assisted loading", Run: E7},
		{ID: "e8", Name: "efficiency vs amount of indexing", Run: E8},
		{ID: "e9", Name: "selective (region-scoped) indexing", Run: E9},
		{ID: "e10", Name: "transitive closure via one inclusion expression", Run: E10},
		{ID: "x1", Name: "extension: incremental index maintenance vs rebuild", Run: X1},
		{ID: "x2", Name: "extension: concurrent query serving and parallel phase-2", Run: X2},
	}
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// --- shared setup helpers (exported for the benchmarks) ---

// BibtexSetup bundles a generated corpus with catalog and indexes.
type BibtexSetup struct {
	Cat      *compile.Catalog
	Doc      *text.Document
	Stats    bibtex.Stats
	Instance *index.Instance
	Engine   *engine.Engine
}

// NewBibtexSetup generates a corpus of n references and indexes it per spec.
// mutate may adjust the generator config.
func NewBibtexSetup(n int, spec grammar.IndexSpec, mutate func(*bibtex.Config)) (*BibtexSetup, error) {
	cfg := bibtex.DefaultConfig(n)
	if mutate != nil {
		mutate(&cfg)
	}
	content, st := bibtex.Generate(cfg)
	cat := bibtex.Catalog()
	doc := text.NewDocument(fmt.Sprintf("bibtex-%d.bib", n), content)
	in, _, err := cat.Grammar.BuildInstance(doc, spec)
	if err != nil {
		return nil, err
	}
	return &BibtexSetup{Cat: cat, Doc: doc, Stats: st, Instance: in, Engine: engine.New(cat, in)}, nil
}

// SgmlSetup bundles a generated document with catalog and indexes.
type SgmlSetup struct {
	Cat      *compile.Catalog
	Doc      *text.Document
	Stats    sgml.Stats
	Instance *index.Instance
	Engine   *engine.Engine
}

// NewSgmlSetup generates a document of the given depth/fanout, fully indexed.
func NewSgmlSetup(depth, fanout int) (*SgmlSetup, error) {
	content, st := sgml.Generate(sgml.DefaultConfig(depth, fanout))
	cat := sgml.Catalog()
	doc := text.NewDocument(fmt.Sprintf("doc-d%d-f%d.sgml", depth, fanout), content)
	in, _, err := cat.Grammar.BuildInstance(doc, grammar.IndexSpec{})
	if err != nil {
		return nil, err
	}
	return &SgmlSetup{Cat: cat, Doc: doc, Stats: st, Instance: in, Engine: engine.New(cat, in)}, nil
}

// MedianTime runs fn repeats times and returns the median duration.
func MedianTime(repeats int, fn func() error) (time.Duration, error) {
	if repeats < 1 {
		repeats = 1
	}
	times := make([]time.Duration, 0, repeats)
	for i := 0; i < repeats; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2], nil
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000.0)
}

func ratio(a, b time.Duration) string {
	if a == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", float64(b)/float64(a))
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }

// regionBytes is the number of document bytes the regions cover.
func regionBytes(s region.Set) int {
	n := 0
	for _, r := range s.Regions() {
		n += r.Len()
	}
	return n
}

// mustQuery parses a query, panicking on error (experiment queries are
// fixed strings).
func mustQuery(src string) *xsql.Query { return xsql.MustParse(src) }
