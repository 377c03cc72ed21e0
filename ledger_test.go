package qof_test

// Work ledger: the benchmark's four workloads, shrunk to a few hundred
// references, run in a fixed order through qof.Corpus, with what each one
// costs and what each cache answered written down as exact counts in
// testdata/ledger.golden. Timings move with the machine; these counts move
// only when the program does different work, so a change that claims to
// alter no work (a refactor of a cache, say) shows it here byte for byte.
// The query templates are those of bench/workload.go; every answer is
// checked against the full-parse oracle. Rewrite the golden with
//
//	go test -run '^TestLedger$' -update .
//
// and name the rows it moves, and why, in the change that does.

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"qof"
	"qof/internal/algebra"
	"qof/internal/bibtex"
	"qof/internal/engine"
	"qof/internal/pool"
	"qof/internal/refeval"
	"qof/internal/region"
	"qof/internal/xsql"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/ledger.golden")

const ledgerGolden = "testdata/ledger.golden"

// ledgerWorkload is one workload's inputs: its files, its indexing choice
// and its queries in sending order.
type ledgerWorkload struct {
	name    string
	files   int
	refs    int      // per file
	regions []string // nil indexes every non-terminal
	pool    []string
	order   []int // pool indexes in sending order
	eval    bool  // the pool is region-algebra expressions, run with File.Eval
}

// ledgerWords and ledgerNames are the generator's vocabulary and last names
// (bench/workload.go's copies of them).
func ledgerWords() []string {
	v := []string{
		"the", "of", "a", "and", "to", "in", "for", "with", "on", "system",
		"algorithm", "differential", "equation", "automatic", "series",
		"taylor", "convergence", "radius", "program", "solve", "method",
		"numerical", "analysis", "error", "bound", "order", "point",
		"derivative", "function", "interval", "computation", "fortran",
	}
	for i := 0; i < 400; i++ {
		v = append(v, fmt.Sprintf("term%03d", i))
	}
	return v
}

func ledgerNames() []string {
	n := []string{
		"Corliss", "Griewank", "Aberth", "Gupta", "Rall", "Moore", "Tompa",
		"Salminen", "Gonnet", "Abiteboul", "Cluet", "Kifer", "Sagiv",
		"Mendelzon", "Hull", "Vianu", "Ullman", "Codd", "Gray", "Stonebraker",
	}
	for i := 0; i < 180; i++ {
		n = append(n, fmt.Sprintf("Author%03d", i))
	}
	return n
}

// ledgerWorkloads builds the four workloads. The pools are as large as the
// benchmark's where that decides what a cache holds: phase1_cold and
// phase2_parse send more distinct texts than the catalog keeps prepared,
// round robin, twice; hot_repeat draws from a pool smaller than every
// cache by Zipf(1.1), and daemon_open from the benchmark's 376 queries, so
// the prepared texts and the result sets are evicted, least recently used
// first.
func ledgerWorkloads() []ledgerWorkload {
	const from = "FROM References r WHERE"
	rng := rand.New(rand.NewSource(1994))
	shuffled := func(all []string, n int) []string {
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		return all[:n]
	}
	names := func(n int) []string { return append([]string{"Chang"}, shuffled(ledgerNames(), n-1)...) }
	twice := func(n int) []int {
		out := make([]int, 2*n)
		for i := range out {
			out[i] = i % n
		}
		return out
	}
	zipf := func(pool, n int) []int {
		z := rand.NewZipf(rng, 1.1, 1, uint64(pool-1))
		out := make([]int, n)
		for i := range out {
			out[i] = int(z.Uint64())
		}
		return out
	}

	cold := ledgerWorkload{name: "phase1_cold", files: 1, refs: 500}
	for _, x := range shuffled(ledgerWords(), 24) {
		cold.pool = append(cold.pool, fmt.Sprintf(`SELECT r.Key %s r.Abstract CONTAINS %q`, from, x))
	}
	for _, x := range shuffled(ledgerWords(), 24) {
		cold.pool = append(cold.pool, fmt.Sprintf(`SELECT r.Key %s r.Keywords CONTAINS %q AND r.Abstract CONTAINS "system"`, from, x))
	}
	for _, n := range names(12) {
		cold.pool = append(cold.pool,
			fmt.Sprintf(`SELECT r.Key %s r.Authors.Name.Last_Name = %q`, from, n),
			fmt.Sprintf(`SELECT r.Key %s r.*X.Last_Name = %q`, from, n),
			fmt.Sprintf(`SELECT r.Authors.Name.Last_Name %s r.Editors.Name.Last_Name = %q`, from, n))
	}
	for _, x := range shuffled(ledgerWords()[8:40], 4) {
		cold.pool = append(cold.pool, fmt.Sprintf(`SELECT r.Key %s NOT r.Abstract CONTAINS %q`, from, x))
	}
	rng.Shuffle(len(cold.pool), func(i, j int) { cold.pool[i], cold.pool[j] = cold.pool[j], cold.pool[i] })
	cold.order = twice(len(cold.pool))

	parse := ledgerWorkload{name: "phase2_parse", files: 1, refs: 500, regions: []string{"Reference", "Key", "Last_Name"}}
	for _, x := range shuffled(ledgerWords()[len(ledgerWords())/2:], 32) {
		parse.pool = append(parse.pool,
			fmt.Sprintf(`SELECT r %s r.Abstract CONTAINS %q`, from, x),
			fmt.Sprintf(`SELECT r.Title %s r.Keywords CONTAINS %q`, from, x))
	}
	parse.pool = append(parse.pool,
		fmt.Sprintf(`SELECT r %s r.Authors.Name.Last_Name = "Chang"`, from),
		fmt.Sprintf(`SELECT r.Title %s r.Editors.Name.Last_Name = "Chang"`, from))
	rng.Shuffle(len(parse.pool), func(i, j int) { parse.pool[i], parse.pool[j] = parse.pool[j], parse.pool[i] })
	parse.order = twice(len(parse.pool))

	hot := ledgerWorkload{name: "hot_repeat", files: 1, refs: 500}
	hn := names(13)[1:]
	hot.pool = []string{
		fmt.Sprintf(`SELECT r %s r.Abstract CONTAINS "system" LIMIT 10`, from),
		fmt.Sprintf(`SELECT r %s r.Key STARTS "Key0001"`, from),
		fmt.Sprintf(`SELECT r %s r.Abstract CONTAINS "algorithm" LIMIT 5`, from),
		fmt.Sprintf(`SELECT r.Key %s r.Authors.Name.Last_Name = %q`, from, hn[0]),
		fmt.Sprintf(`SELECT r %s r.Authors.Name.Last_Name = "Chang"`, from),
		fmt.Sprintf(`SELECT r %s r.Abstract CONTAINS "equation" LIMIT 20`, from),
		fmt.Sprintf(`SELECT r.Key %s r.*X.Last_Name = %q`, from, hn[1]),
		fmt.Sprintf(`SELECT r.Authors.Name.Last_Name %s r.Editors.Name.Last_Name = %q`, from, hn[2]),
	}
	for _, n := range hn[3:] {
		hot.pool = append(hot.pool, fmt.Sprintf(`SELECT r %s r.Editors.Name.Last_Name = %q LIMIT 10`, from, n))
	}
	hot.order = zipf(len(hot.pool), 400)

	daemon := ledgerWorkload{name: "daemon_open", files: 3, refs: 170}
	for _, n := range names(188) {
		daemon.pool = append(daemon.pool,
			fmt.Sprintf(`SELECT r %s r.Editors.Name.Last_Name = %q LIMIT 10`, from, n),
			fmt.Sprintf(`SELECT r.Key %s r.Authors.Name.Last_Name = %q`, from, n))
	}
	daemon.order = zipf(len(daemon.pool), 1000)

	// No XSQL query compiles to a ⊃d or ⊂d (Theorem 3.6 rewrites them to
	// ⊃ and ⊂ under the RIG), so these run with File.Eval: ⊃d over names,
	// the ⊂d dual, one whose container side holds word points, which never
	// block, and one that a named region blocks everywhere.
	direct := ledgerWorkload{name: "direct_incl", files: 1, refs: 500, eval: true, pool: []string{
		`Name >d equals(Last_Name, "Chang")`,
		`Editors >d Name`,
		`Last_Name <d Name`,
		`(Abstract + word("system")) >d match("yst")`,
		`Reference >d word("system")`,
	}}
	for i := range direct.pool {
		direct.order = append(direct.order, i)
	}

	return []ledgerWorkload{cold, parse, hot, daemon, direct}
}

// ledgerRows are the counts of one workload, in the golden's order.
type ledgerRows struct {
	candidates, parsed, parsedBytes, results      int
	planCached, resultCached, resultCacheHits     int
	ops, directOps, regionsTouched, shortCircuits int
	blockerKernels                                int
	cheap, distinct                               int // candidate expressions CostAtLeast keeps out of the cache, of all
}

// TestLedger runs the four workloads and compares their counts with the
// golden. A mismatch is a change in the work the program does.
func TestLedger(t *testing.T) {
	var out bytes.Buffer
	fmt.Fprintln(&out, "# Work ledger: go test -run '^TestLedger$' [-update] .")
	fmt.Fprintln(&out, "# Sums over every file execution of each workload. ops .. blocker_kernels")
	fmt.Fprintln(&out, "# come from one cache-free evaluation of each executed plan's candidates.")
	fmt.Fprintln(&out, "# direct_incl runs region-algebra expressions with File.Eval: only its")
	fmt.Fprintln(&out, "# results and the algebra statistics of each expression apply.")
	for _, w := range ledgerWorkloads() {
		type row struct {
			name string
			v    int
		}
		var rs []row
		var rows ledgerRows
		if w.eval {
			rows = runEvalLedger(t, w)
			rs = []row{{"results", rows.results}}
		} else {
			rows = runLedger(t, w)
			rs = []row{
				{"candidates", rows.candidates},
				{"parsed", rows.parsed},
				{"parsed_bytes", rows.parsedBytes},
				{"results", rows.results},
				{"plan_cached", rows.planCached},
				{"result_cached", rows.resultCached},
				{"result_cache_hits", rows.resultCacheHits},
			}
		}
		rs = append(rs,
			row{"ops", rows.ops},
			row{"direct_ops", rows.directOps},
			row{"regions_touched", rows.regionsTouched},
			row{"short_circuits", rows.shortCircuits},
			row{"blocker_kernels", rows.blockerKernels})
		fmt.Fprintf(&out, "\n%s files=%d refs=%d pool=%d executions=%d\n", w.name, w.files, w.refs, len(w.pool), len(w.order))
		for _, r := range rs {
			fmt.Fprintf(&out, "  %-20s %d\n", r.name, r.v)
		}
		if !w.eval {
			fmt.Fprintf(&out, "  %-20s %d of %d distinct\n", "cheap_candidates", rows.cheap, rows.distinct)
		}
	}
	if *updateLedger {
		if err := os.WriteFile(ledgerGolden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(ledgerGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(gl), len(wl)); i++ {
			g, w := "", ""
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("%s:%d: got %q, want %q", ledgerGolden, i+1, g, w)
			}
		}
	}
}

// runLedger runs one workload on a fresh schema with no helpers, so every
// file's work happens on the test's goroutine in corpus order.
func runLedger(t *testing.T, w ledgerWorkload) ledgerRows {
	defer pool.SetHelpers(0)()
	files := make(map[string]string, w.files)
	for i := 0; i < w.files; i++ {
		cfg := bibtex.DefaultConfig(w.refs)
		cfg.Seed = 1994 + int64(i)
		files[fmt.Sprintf("refs%02d.bib", i)], _ = bibtex.Generate(cfg)
	}
	var opts []qof.IndexOption
	if w.regions != nil {
		opts = append(opts, qof.WithRegions(w.regions...))
	}
	c := qof.BibTeX().NewCorpus()
	if err := c.AddAll(files, opts...); err != nil {
		t.Fatal(err)
	}
	engines := make([]*engine.Engine, 0, w.files)
	evaluators := make([]*algebra.Evaluator, 0, w.files)
	oracles := make([]*refeval.Oracle, 0, w.files)
	for _, f := range qof.CorpusFiles(c) {
		eng := qof.FileEngine(f)
		oracle, err := refeval.NewOracle(eng.Catalog(), eng.Instance().Document())
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, eng)
		evaluators = append(evaluators, algebra.NewEvaluator(eng.Instance()))
		oracles = append(oracles, oracle)
	}
	answers := make([]map[string]*refeval.QueryResult, w.files)
	for i := range answers {
		answers[i] = make(map[string]*refeval.QueryResult)
	}
	cheap := make(map[string]bool)
	var rows ledgerRows
	for _, k := range w.order {
		src := w.pool[k]
		results, err := qof.CorpusRun(c, src)
		if err != nil {
			t.Fatalf("%s: %s: %v", w.name, src, err)
		}
		for i, res := range results {
			st := res.Stats
			rows.candidates += st.Candidates
			rows.parsed += st.Parsed
			rows.parsedBytes += st.ParsedBytes
			rows.results += st.Results
			rows.planCached += b2i(st.PlanCached)
			rows.resultCached += b2i(st.ResultCached)
			rows.resultCacheHits += st.ResultCacheHits
			for _, vp := range res.Plan.Vars {
				if vp.Candidates == nil {
					continue
				}
				var ast algebra.Stats
				if _, err := evaluators[i].EvalContext(context.Background(), vp.Candidates, &ast, nil); err != nil {
					t.Fatalf("%s: %s: evaluating %s: %v", w.name, src, vp.Candidates, err)
				}
				rows.addAlgebra(ast)
				cheap[vp.Candidates.String()] = !algebra.CostAtLeast(vp.Candidates, algebra.DefaultResultMinCost)
			}
			want := answers[i][src]
			if want == nil {
				if want, err = oracles[i].Query(xsql.MustParse(src)); err != nil {
					t.Fatal(err)
				}
				answers[i][src] = want
			}
			checkLedgerAnswer(t, engines[i].Instance().Document().Name(), src, res, want)
		}
	}
	for _, c := range cheap {
		rows.cheap += b2i(c)
	}
	rows.distinct = len(cheap)
	return rows
}

// addAlgebra adds one cache-free evaluation's statistics.
func (r *ledgerRows) addAlgebra(ast algebra.Stats) {
	r.ops += ast.Ops
	r.directOps += ast.DirectOps
	r.regionsTouched += ast.RegionsTouched
	r.shortCircuits += ast.ShortCircuits
	r.blockerKernels += ast.BlockerKernels
}

// runEvalLedger runs an expression workload with File.Eval on each file,
// checks every answer against refeval's definition-chasing evaluator, and
// counts one cache-free evaluation of each expression.
func runEvalLedger(t *testing.T, w ledgerWorkload) ledgerRows {
	var rows ledgerRows
	for i := 0; i < w.files; i++ {
		cfg := bibtex.DefaultConfig(w.refs)
		cfg.Seed = 1994 + int64(i)
		content, _ := bibtex.Generate(cfg)
		f, err := qof.BibTeX().Index(fmt.Sprintf("refs%02d.bib", i), content)
		if err != nil {
			t.Fatal(err)
		}
		in := qof.FileEngine(f).Instance()
		ev, ref := algebra.NewEvaluator(in), refeval.New(in)
		for _, k := range w.order {
			src := w.pool[k]
			spans, err := f.Eval(src)
			if err != nil {
				t.Fatalf("%s: %s: %v", w.name, src, err)
			}
			e := algebra.MustParse(src)
			var ast algebra.Stats
			if _, err := ev.EvalContext(context.Background(), e, &ast, nil); err != nil {
				t.Fatalf("%s: %s: %v", w.name, src, err)
			}
			want, err := ref.Eval(e)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]region.Region, len(spans))
			for j, sp := range spans {
				got[j] = region.Of(sp.Start, sp.End)
			}
			if !region.FromRegions(got).Equal(want) {
				t.Errorf("%s: %s: %d spans, the oracle %d", w.name, src, len(spans), want.Len())
			}
			rows.results += len(spans)
			rows.addAlgebra(ast)
		}
	}
	return rows
}

// checkLedgerAnswer compares one file's answer with the oracle's; under a
// LIMIT k the answer is the oracle's first k rows.
func checkLedgerAnswer(t *testing.T, file, src string, res *engine.Result, want *refeval.QueryResult) {
	t.Helper()
	limit := res.Plan.Query.Limit
	if res.Projected {
		ws := want.Strings
		if limit > 0 && len(ws) > limit {
			ws = ws[:limit]
		}
		if !slices.Equal(res.Strings, ws) {
			t.Errorf("%s: %s: %d values, the oracle %d", file, src, len(res.Strings), len(ws))
		}
		return
	}
	wr := want.Regions
	if limit > 0 && wr.Len() > limit {
		wr = region.FromRegions(wr.Regions()[:limit])
	}
	if !res.Regions.Equal(wr) {
		t.Errorf("%s: %s: %d regions, the oracle %d", file, src, res.Regions.Len(), wr.Len())
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
