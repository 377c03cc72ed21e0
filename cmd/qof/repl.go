package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"qof/internal/algebra"
	"qof/internal/engine"
	"qof/internal/index"
	"qof/internal/xsql"
)

// cmdRepl runs an interactive session over one indexed file: XSQL queries,
// region-algebra expressions (prefixed with "="), and a few dot-commands.
func cmdRepl(args []string) error {
	fs := flag.NewFlagSet("repl", flag.ExitOnError)
	dom := fs.String("domain", "bibtex", "file format")
	idxPath := fs.String("index", "", "persisted index file")
	names := fs.String("names", "", "region names to index when building in memory")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: qof repl -domain D FILE")
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
	return repl(os.Stdin, os.Stdout, d, in)
}

// repl drives the interactive loop; split out for testing.
func repl(r io.Reader, w io.Writer, d domain, in *index.Instance) error {
	eng := engine.New(d.catalog(), in)
	ev := algebra.NewEvaluator(in)
	doc := in.Document()
	fmt.Fprintf(w, "qof repl — %s (%s, %d KB, %d region names)\n",
		doc.Name(), d.name, doc.Len()/1024, len(in.Names()))
	fmt.Fprintln(w, `type an XSQL query, "= <region expression>", or .help`)
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	explain := false
	for {
		fmt.Fprint(w, "qof> ")
		if !scanner.Scan() {
			fmt.Fprintln(w)
			return scanner.Err()
		}
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "":
			continue
		case line == ".quit" || line == ".exit":
			return nil
		case line == ".help":
			fmt.Fprintln(w, `commands:
  SELECT ...            run an XSQL query
  = EXPR                evaluate a region-algebra expression
  .explain              toggle plan output
  .names                list indexed region names
  .rig                  print the region inclusion graph
  .classes              show class bindings
  .quit`)
		case line == ".explain":
			explain = !explain
			fmt.Fprintf(w, "explain %v\n", explain)
		case line == ".names":
			fmt.Fprintln(w, strings.Join(in.Names(), ", "))
		case line == ".rig":
			fmt.Fprintln(w, d.catalog().RIG)
		case line == ".classes":
			fmt.Fprintln(w, d.classes)
		case strings.HasPrefix(line, "="):
			runReplExpr(w, ev, doc.Content(), strings.TrimSpace(line[1:]))
		default:
			runReplQuery(w, eng, doc.Content(), line, explain)
		}
	}
}

func runReplExpr(w io.Writer, ev *algebra.Evaluator, content, src string) {
	e, err := algebra.Parse(src)
	if err != nil {
		fmt.Fprintln(w, "error:", err)
		return
	}
	start := time.Now()
	set, err := ev.Eval(e)
	if err != nil {
		fmt.Fprintln(w, "error:", err)
		return
	}
	fmt.Fprintf(w, "%s -> %d regions in %v\n", algebra.Pretty(e), set.Len(), time.Since(start).Round(time.Microsecond))
	for i, r := range set.Regions() {
		if i == 10 {
			fmt.Fprintf(w, "  ... (%d more)\n", set.Len()-10)
			break
		}
		fmt.Fprintf(w, "  [%d,%d) %s\n", r.Start, r.End, snippet(content[r.Start:r.End]))
	}
}

func runReplQuery(w io.Writer, eng *engine.Engine, content, src string, explain bool) {
	q, err := xsql.Parse(src)
	if err != nil {
		fmt.Fprintln(w, "error:", err)
		return
	}
	start := time.Now()
	res, err := eng.Execute(q)
	if err != nil {
		fmt.Fprintln(w, "error:", err)
		return
	}
	elapsed := time.Since(start)
	if explain {
		fmt.Fprint(w, res.Explain())
	}
	if res.Projected {
		for i, s := range res.Strings {
			if i == 10 {
				fmt.Fprintf(w, "  ... (%d more)\n", len(res.Strings)-10)
				break
			}
			fmt.Fprintf(w, "  %s\n", s)
		}
	} else {
		for i, r := range res.Regions.Regions() {
			if i == 10 {
				fmt.Fprintf(w, "  ... (%d more)\n", res.Regions.Len()-10)
				break
			}
			fmt.Fprintf(w, "  [%d,%d) %s\n", r.Start, r.End, snippet(content[r.Start:r.End]))
		}
	}
	st := res.Stats
	fmt.Fprintf(w, "%d results in %v (candidates %d, parsed %d, exact=%v)\n",
		st.Results, elapsed.Round(time.Microsecond), st.Candidates, st.Parsed, st.Exact)
}

// snippet compresses a region's text to one short line.
func snippet(s string) string {
	s = strings.Join(strings.Fields(s), " ")
	if len(s) > 72 {
		s = s[:69] + "..."
	}
	return s
}

// cmdStats prints corpus and index statistics for a file.
func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	dom := fs.String("domain", "bibtex", "file format")
	names := fs.String("names", "", "region names to index")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: qof stats -domain D FILE")
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
	start := time.Now()
	in, _, err := d.catalog().Grammar.BuildInstance(doc, spec)
	if err != nil {
		return err
	}
	buildTime := time.Since(start)
	fmt.Printf("file: %s (%d bytes)\n", doc.Name(), doc.Len())
	fmt.Printf("build: %v\n", buildTime.Round(time.Millisecond))
	fmt.Printf("words: %d occurrences, %d distinct\n", in.Words().TokenCount(), in.Words().WordCount())
	fmt.Printf("regions: %d across %d names (index ≈ %d KB)\n",
		in.RegionCount(), len(in.Names()), in.SizeBytes()/1024)
	for _, name := range in.Names() {
		set := in.MustRegion(name)
		total := 0
		for _, r := range set.Regions() {
			total += r.Len()
		}
		avg := 0
		if set.Len() > 0 {
			avg = total / set.Len()
		}
		scope := ""
		if wi := in.Scope(name); wi != "" {
			scope = " (scoped to " + wi + ")"
		}
		fmt.Printf("  %-14s %7d regions, avg %5d bytes%s\n", name, set.Len(), avg, scope)
	}
	return nil
}

// cmdDot renders the RIG as a Graphviz digraph (the paper's Hy+ companion
// system visualized exactly such graphs).
func cmdDot(args []string) error {
	fs := flag.NewFlagSet("dot", flag.ExitOnError)
	dom := fs.String("domain", "bibtex", "file format")
	names := fs.String("names", "", "project onto these indexed names first")
	fs.Parse(args)
	d, err := lookupDomain(*dom)
	if err != nil {
		return err
	}
	g := d.catalog().RIG
	if *names != "" {
		g = g.Project(splitList(*names)...)
	}
	fmt.Println("digraph RIG {")
	fmt.Println("  rankdir=TB; node [shape=box, fontname=\"Helvetica\"];")
	for _, line := range strings.Split(g.String(), "\n") {
		if from, to, ok := strings.Cut(line, " -> "); ok {
			fmt.Printf("  %q -> %q;\n", from, to)
		}
	}
	fmt.Println("}")
	return nil
}
