// Command qof is the query-on-files CLI: it generates corpora in the
// built-in file formats, builds and persists region/word indexes, runs
// XSQL queries and raw region-algebra expressions, explains plans, prints
// parse trees and region inclusion graphs, and recommends index choices —
// the end-to-end workflow of "Optimizing Queries on Files" (SIGMOD 1994).
//
// Usage:
//
//	qof gen    -domain bibtex -n 1000 [-seed 7] [-o corpus.bib]
//	qof gen    -domain bibtex -sample
//	qof index  -domain bibtex corpus.bib [-names A,B] [-scoped Name:Within] -o corpus.qidx
//	qof query  -domain bibtex corpus.bib [FILE...] [-index corpus.qidx] [-explain] [-format json] 'SELECT ...'
//	qof eval   -domain bibtex corpus.bib [-names A,B] 'Reference > contains(Last_Name, "Chang")'
//	qof repl   -domain bibtex corpus.bib
//	qof tree   -domain bibtex corpus.bib
//	qof rig    -domain bibtex [-names A,B]
//	qof dot    -domain bibtex [-names A,B]
//	qof stats  -domain bibtex corpus.bib
//	qof advise -domain bibtex 'SELECT ...' ['SELECT ...' ...]
//
// Domains: bibtex, logs, sgml, src.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"qof"
	"qof/internal/advisor"
	"qof/internal/algebra"
	"qof/internal/engine"
	"qof/internal/grammar"
	"qof/internal/index"
	"qof/internal/text"
	"qof/internal/xsql"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "gen":
		err = cmdGen(args)
	case "index":
		err = cmdIndex(args)
	case "query":
		err = cmdQuery(args)
	case "eval":
		err = cmdEval(args)
	case "tree":
		err = cmdTree(args)
	case "rig":
		err = cmdRIG(args)
	case "dot":
		err = cmdDot(args)
	case "stats":
		err = cmdStats(args)
	case "repl":
		err = cmdRepl(args)
	case "advise":
		err = cmdAdvise(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "qof: unknown command %q\n\n", cmd)
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "qof %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `qof - querying files through text indexes (Consens & Milo, SIGMOD 1994)

commands:
  gen     generate a synthetic corpus (or print the paper's Figure 1 sample)
  index   build a region/word index for a file and persist it
  query   run an XSQL query over a file (phase 1 on the index, phase 2 parses candidates)
  eval    evaluate a raw region-algebra expression
  tree    print the parse tree with regions (the paper's Figure 2/3)
  rig     print the region inclusion graph, optionally projected to an index choice
  dot     render the region inclusion graph as Graphviz
  stats   print corpus and index statistics
  repl    interactive queries and region expressions over one file
  advise  recommend which regions to index for a query workload (Section 7)

run 'qof <command> -h' for flags.`)
	os.Exit(2)
}

// specFlags parses -names and -scoped into an index spec.
func specFlags(names, scoped string) (grammar.IndexSpec, error) {
	var spec grammar.IndexSpec
	if names != "" {
		spec.Names = splitList(names)
	}
	if scoped != "" {
		for _, part := range splitList(scoped) {
			nm, within, ok := strings.Cut(part, ":")
			if !ok {
				return spec, fmt.Errorf("bad -scoped entry %q (want Name:Within)", part)
			}
			spec.Scoped = append(spec.Scoped, grammar.ScopedName{Name: nm, Within: within})
		}
	}
	return spec, nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func readDoc(path string) (*text.Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return text.NewDocument(path, string(data)), nil
}

// buildOrLoad builds the instance per spec, or loads a persisted index.
func buildOrLoad(d domain, doc *text.Document, idxPath string, spec grammar.IndexSpec) (*index.Instance, error) {
	if idxPath != "" {
		f, err := os.Open(idxPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return index.Load(f, doc)
	}
	in, _, err := d.catalog().Grammar.BuildInstance(doc, spec)
	return in, err
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	dom := fs.String("domain", "bibtex", "file format: bibtex, logs, sgml")
	n := fs.Int("n", 100, "corpus size (references, entries, or nesting depth for sgml)")
	seed := fs.Int64("seed", 1994, "generator seed")
	out := fs.String("o", "", "output file (default stdout)")
	sample := fs.Bool("sample", false, "print the domain's sample document instead")
	fs.Parse(args)
	d, err := lookupDomain(*dom)
	if err != nil {
		return err
	}
	content := d.sample
	if !*sample {
		content = d.generate(*n, *seed)
	}
	if *out == "" {
		fmt.Print(content)
		return nil
	}
	return os.WriteFile(*out, []byte(content), 0o644)
}

func cmdIndex(args []string) error {
	fs := flag.NewFlagSet("index", flag.ExitOnError)
	dom := fs.String("domain", "bibtex", "file format")
	names := fs.String("names", "", "region names to index (default: all non-terminals)")
	scoped := fs.String("scoped", "", "selective indexes, Name:Within[,Name:Within...]")
	out := fs.String("o", "", "index output file (required)")
	fs.Parse(args)
	if fs.NArg() != 1 || *out == "" {
		return fmt.Errorf("usage: qof index -domain D [-names ...] -o out.qidx FILE")
	}
	d, err := lookupDomain(*dom)
	if err != nil {
		return err
	}
	doc, err := readDoc(fs.Arg(0))
	if err != nil {
		return err
	}
	spec, err := specFlags(*names, *scoped)
	if err != nil {
		return err
	}
	in, _, err := d.catalog().Grammar.BuildInstance(doc, spec)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := in.Save(f); err != nil {
		return err
	}
	fmt.Printf("indexed %s: %d region names, %d regions, %d word occurrences -> %s\n",
		fs.Arg(0), len(in.Names()), in.RegionCount(), in.Words().TokenCount(), *out)
	return nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	dom := fs.String("domain", "bibtex", "file format")
	idxPath := fs.String("index", "", "persisted index file (default: build in memory)")
	names := fs.String("names", "", "region names to index when building in memory")
	scoped := fs.String("scoped", "", "selective indexes, Name:Within[,...]")
	explain := fs.Bool("explain", false, "print the plan before the results")
	quiet := fs.Bool("quiet", false, "print only statistics, not result rows")
	format := fs.String("format", "text", "output format: text or json")
	timeout := fs.Duration("timeout", 0, "abort the query after this long (0 = no deadline)")
	maxRegions := fs.Int("max-regions", 0, "abort after producing this many index regions (0 = unlimited)")
	maxBytes := fs.Int("max-bytes", 0, "abort after parsing this many document bytes (0 = unlimited)")
	fs.Parse(args)
	if fs.NArg() < 2 {
		return fmt.Errorf("usage: qof query -domain D FILE [FILE...] 'SELECT ...'")
	}
	if *format != "text" && *format != "json" {
		return fmt.Errorf("unknown -format %q (want text or json)", *format)
	}
	d, err := lookupDomain(*dom)
	if err != nil {
		return err
	}
	spec, err := specFlags(*names, *scoped)
	if err != nil {
		return err
	}
	q, err := xsql.Parse(fs.Arg(fs.NArg() - 1))
	if err != nil {
		return err
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if fs.NArg() > 2 {
		// Several files: query the whole corpus (Section 2's shared
		// bibliographies scenario).
		switch {
		case *idxPath != "":
			return fmt.Errorf("-index applies to single-file queries")
		case *explain:
			return fmt.Errorf("-explain applies to single-file queries")
		case *format == "json":
			return fmt.Errorf("-format json applies to single-file queries")
		}
		files := map[string]string{}
		for _, path := range fs.Args()[:fs.NArg()-1] {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			files[path] = string(data)
		}
		opts := []qof.IndexOption{qof.WithRegions(spec.Names...)}
		for _, sc := range spec.Scoped {
			opts = append(opts, qof.WithScopedRegion(sc.Name, sc.Within))
		}
		corpus := d.schema().NewCorpus()
		if err := corpus.AddAllContext(ctx, files, opts...); err != nil {
			return err
		}
		res, err := corpus.ExecuteContext(ctx, fs.Arg(fs.NArg()-1), qof.WithMaxRegions(*maxRegions), qof.WithMaxEvalBytes(*maxBytes))
		if err != nil {
			return err
		}
		projected := len(q.Select.Segs) > 0
		for _, hit := range res.Hits {
			if *quiet {
				n := len(hit.Values)
				if !projected {
					n = len(hit.Spans)
				}
				fmt.Printf("%s: %d results\n", hit.File, n)
				continue
			}
			for _, s := range hit.Values {
				fmt.Printf("%s: %s\n", hit.File, s)
			}
			if !projected {
				for _, sp := range hit.Spans {
					fmt.Printf("%s: [%d,%d)\n", hit.File, sp.Start, sp.End)
				}
			}
		}
		st := res.Stats
		fmt.Printf("files=%d results=%d candidates=%d parsed=%d parsed_bytes=%d\n",
			len(files), st.Results, st.Candidates, st.Parsed, st.ParsedBytes)
		return nil
	}
	doc, err := readDoc(fs.Arg(0))
	if err != nil {
		return err
	}
	in, err := buildOrLoad(d, doc, *idxPath, spec)
	if err != nil {
		return err
	}
	eng := engine.New(d.catalog(), in)
	res, err := eng.ExecuteContext(ctx, q, engine.Limits{MaxRegions: *maxRegions, MaxEvalBytes: *maxBytes})
	if err != nil {
		return err
	}
	if *format == "json" {
		return writeJSONResult(os.Stdout, doc, q, res, *explain)
	}
	if *explain {
		fmt.Print(res.Explain())
	}
	if !*quiet {
		if res.Projected {
			for _, s := range res.Strings {
				fmt.Println(s)
			}
		} else {
			for _, r := range res.Regions.Regions() {
				fmt.Printf("-- %s at [%d,%d)\n", q.Select.Var, r.Start, r.End)
				fmt.Println(strings.TrimSpace(doc.Slice(int(r.Start), int(r.End))))
			}
		}
	}
	st := res.Stats
	fmt.Printf("results=%d candidates=%d parsed=%d parsed_bytes=%d peak_bytes=%d exact=%v index_only=%v full_scan=%v\n",
		st.Results, st.Candidates, st.Parsed, st.ParsedBytes, st.PeakBytes, st.Exact, st.IndexOnly, st.FullScan)
	fmt.Printf("compile=%v index_eval=%v parse_filter=%v\n",
		st.CompileTime.Round(time.Microsecond), st.Phase1Time.Round(time.Microsecond),
		st.Phase2Time.Round(time.Microsecond))
	return nil
}

func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	dom := fs.String("domain", "bibtex", "file format")
	idxPath := fs.String("index", "", "persisted index file")
	names := fs.String("names", "", "region names to index when building in memory")
	showText := fs.Bool("text", false, "print each region's text")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: qof eval -domain D FILE 'EXPR'")
	}
	d, err := lookupDomain(*dom)
	if err != nil {
		return err
	}
	doc, err := readDoc(fs.Arg(0))
	if err != nil {
		return err
	}
	spec, err := specFlags(*names, "")
	if err != nil {
		return err
	}
	in, err := buildOrLoad(d, doc, *idxPath, spec)
	if err != nil {
		return err
	}
	expr, err := algebra.Parse(fs.Arg(1))
	if err != nil {
		return err
	}
	set, err := algebra.NewEvaluator(in).Eval(expr)
	if err != nil {
		return err
	}
	fmt.Printf("%s -> %d regions\n", algebra.Pretty(expr), set.Len())
	for _, r := range set.Regions() {
		if *showText {
			fmt.Printf("[%d,%d) %q\n", r.Start, r.End, doc.Slice(int(r.Start), int(r.End)))
		} else {
			fmt.Printf("[%d,%d)\n", r.Start, r.End)
		}
	}
	return nil
}

func cmdTree(args []string) error {
	fs := flag.NewFlagSet("tree", flag.ExitOnError)
	dom := fs.String("domain", "bibtex", "file format")
	terms := fs.Bool("text", true, "show terminal text")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: qof tree -domain D FILE")
	}
	d, err := lookupDomain(*dom)
	if err != nil {
		return err
	}
	doc, err := readDoc(fs.Arg(0))
	if err != nil {
		return err
	}
	tree, err := d.catalog().Grammar.Parse(doc)
	if err != nil {
		return err
	}
	src := ""
	if *terms {
		src = doc.Content()
	}
	fmt.Print(tree.Dump(src))
	return nil
}

func cmdRIG(args []string) error {
	fs := flag.NewFlagSet("rig", flag.ExitOnError)
	dom := fs.String("domain", "bibtex", "file format")
	names := fs.String("names", "", "project the RIG onto these indexed names (Section 6.1)")
	fs.Parse(args)
	d, err := lookupDomain(*dom)
	if err != nil {
		return err
	}
	g := d.catalog().RIG
	if *names != "" {
		g = g.Project(splitList(*names)...)
	}
	fmt.Println(g)
	return nil
}

func cmdAdvise(args []string) error {
	fs := flag.NewFlagSet("advise", flag.ExitOnError)
	dom := fs.String("domain", "bibtex", "file format")
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: qof advise -domain D 'SELECT ...' ['SELECT ...' ...]")
	}
	d, err := lookupDomain(*dom)
	if err != nil {
		return err
	}
	var queries []*xsql.Query
	for _, src := range fs.Args() {
		q, err := xsql.Parse(src)
		if err != nil {
			return fmt.Errorf("query %q: %w", src, err)
		}
		queries = append(queries, q)
	}
	rec, err := advisor.Recommend(d.catalog(), queries)
	if err != nil {
		return err
	}
	fmt.Print(rec)
	return nil
}
