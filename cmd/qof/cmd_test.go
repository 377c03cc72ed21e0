package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"qof"
	"qof/internal/engine"
	"qof/internal/grammar"
	"qof/internal/xsql"
)

// writeCorpus generates a small bibtex corpus into dir and returns its path.
func writeCorpus(t *testing.T, dir string, n int, seed int64) string {
	t.Helper()
	d, err := lookupDomain("bibtex")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "corpus.bib")
	if err := os.WriteFile(path, []byte(d.generate(n, seed)), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCmdGen(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "gen.bib")
	if err := cmdGen([]string{"-domain", "bibtex", "-n", "5", "-seed", "7", "-o", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "AUTHOR") {
		t.Errorf("generated corpus lacks entries:\n%.200s", data)
	}
	// -sample writes the built-in sample document instead.
	sample := filepath.Join(dir, "sample.bib")
	if err := cmdGen([]string{"-domain", "bibtex", "-sample", "-o", sample}); err != nil {
		t.Fatal(err)
	}
	if sd, _ := os.ReadFile(sample); len(sd) == 0 {
		t.Error("sample output empty")
	}
	if err := cmdGen([]string{"-domain", "nope"}); err == nil {
		t.Error("unknown domain accepted")
	}
}

func TestCmdIndexAndQuery(t *testing.T) {
	dir := t.TempDir()
	corpus := writeCorpus(t, dir, 20, 5)
	idx := filepath.Join(dir, "corpus.qidx")
	if err := cmdIndex([]string{"-domain", "bibtex", "-o", idx, corpus}); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(idx); err != nil || st.Size() == 0 {
		t.Fatalf("index file: %v, %v", st, err)
	}
	// Query against the persisted index and against an in-memory build,
	// projected and unprojected, text and JSON output.
	q := `SELECT r.Key FROM References r WHERE r.Year STARTS "19"`
	for _, args := range [][]string{
		{"-domain", "bibtex", "-index", idx, corpus, q},
		{"-domain", "bibtex", "-explain", corpus, q},
		{"-domain", "bibtex", "-format", "json", corpus, q},
		{"-domain", "bibtex", "-quiet", corpus, `SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`},
	} {
		if err := cmdQuery(args); err != nil {
			t.Errorf("cmdQuery(%v): %v", args, err)
		}
	}
	// Error paths: bad format, missing args, unparsable query.
	for _, args := range [][]string{
		{"-domain", "bibtex", "-format", "bogus", corpus, q},
		{"-domain", "bibtex", corpus},
		{"-domain", "bibtex", corpus, "SELECT nonsense"},
	} {
		if err := cmdQuery(args); err == nil {
			t.Errorf("cmdQuery(%v) succeeded, want error", args)
		}
	}
	if err := cmdIndex([]string{"-domain", "bibtex", corpus}); err == nil {
		t.Error("cmdIndex without -o accepted")
	}
}

// TestCmdQueryTextStats: a single-file text answer ends in the engine's
// statistics line and then one elapsed= line, the time qof query measured
// around the execution; the engine itself times nothing.
func TestCmdQueryTextStats(t *testing.T) {
	corpus := writeCorpus(t, t.TempDir(), 20, 5)
	q := `SELECT r FROM References r WHERE r.Abstract CONTAINS "system"`
	d, err := lookupDomain("bibtex")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := readDoc(corpus)
	if err != nil {
		t.Fatal(err)
	}
	in, err := buildOrLoad(d, doc, "", grammar.IndexSpec{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.New(d.catalog(), in).Execute(xsql.MustParse(q))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Results == 0 {
		t.Fatal("vacuous fixture: no results")
	}
	want := fmt.Sprintf("results=%d candidates=%d parsed=%d parsed_bytes=%d peak_bytes=%d exact=%v index_only=%v full_scan=%v",
		st.Results, st.Candidates, st.Parsed, st.ParsedBytes, st.PeakBytes, st.Exact, st.IndexOnly, st.FullScan)

	out := captureStdout(t, func() error { return cmdQuery([]string{"-domain", "bibtex", corpus, q}) })
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) < 2 || lines[len(lines)-2] != want {
		t.Fatalf("output does not end in the stats line %q:\n%s", want, out)
	}
	elapsed, ok := strings.CutPrefix(lines[len(lines)-1], "elapsed=")
	if !ok {
		t.Fatalf("last line %q, want elapsed=", lines[len(lines)-1])
	}
	if d, err := time.ParseDuration(elapsed); err != nil || d < 0 {
		t.Errorf("elapsed=%s: %v, %v", elapsed, d, err)
	}
	if strings.Contains(out, "compile=") {
		t.Errorf("output still has a compile= line:\n%s", out)
	}
}

// TestQueryRejectsExecFlag: -exec chose between two executors and there is
// one now, so the flag is unknown — exit status 2 and the usage text — even
// with the value that used to be its default. The flag set exits the
// process on a parse error, so the command runs in a copy of the test binary.
func TestQueryRejectsExecFlag(t *testing.T) {
	if os.Getenv("QOF_TEST_QUERY_EXEC_FLAG") == "1" {
		cmdQuery([]string{"-domain", "bibtex", "-exec", "streaming", "corpus.bib", "SELECT r FROM References r"})
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestQueryRejectsExecFlag$")
	cmd.Env = append(os.Environ(), "QOF_TEST_QUERY_EXEC_FLAG=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("qof query -exec streaming: err = %v, want exit status 2\n%s", err, out)
	}
	for _, want := range []string{"flag provided but not defined: -exec", "Usage of query:"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

func TestCmdQueryCorpus(t *testing.T) {
	dir := t.TempDir()
	a := writeCorpus(t, dir, 10, 1)
	d, _ := lookupDomain("bibtex")
	b := filepath.Join(dir, "second.bib")
	if err := os.WriteFile(b, []byte(d.generate(10, 2)), 0o644); err != nil {
		t.Fatal(err)
	}
	q := `SELECT r.Key FROM References r WHERE r.Year STARTS "19"`
	// No reference of these files has a "Chang" author, so the -quiet call
	// asks for a word some abstracts hold, on the paper's partial index, where
	// CONTAINS on Abstract parses its candidates.
	const system = `SELECT r FROM References r WHERE r.Abstract CONTAINS "system"`
	partial := []qof.IndexOption{qof.WithRegions("Reference", "Key", "Last_Name")}
	// The expected output is built from one single-file query per file, in
	// argument order (a and b are in name order too).
	var rows, counts []string
	var keys, hits [4]int // results, candidates, parsed, parsed bytes
	add := func(sum *[4]int, res *qof.Results) {
		st := res.Stats
		for i, n := range []int{res.Len(), st.Candidates, st.Parsed, st.ParsedBytes} {
			sum[i] += n
		}
	}
	for _, path := range []string{a, b} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := qof.BibTeX().Index(path, string(data))
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range res.Values {
			rows = append(rows, path+": "+v)
		}
		add(&keys, res)
		if f, err = qof.BibTeX().Index(path, string(data), partial...); err != nil {
			t.Fatal(err)
		}
		if res, err = f.Query(system); err != nil {
			t.Fatal(err)
		}
		if res.Len() > 0 {
			counts = append(counts, fmt.Sprintf("%s: %d results", path, res.Len()))
		}
		add(&hits, res)
	}
	if len(rows) == 0 || len(counts) != 2 || hits[2] == 0 {
		t.Fatalf("vacuous fixture: %d rows, %d per-file counts, %d parsed", len(rows), len(counts), hits[2])
	}
	statsLine := func(sum [4]int) string {
		return fmt.Sprintf("files=2 results=%d candidates=%d parsed=%d parsed_bytes=%d", sum[0], sum[1], sum[2], sum[3])
	}
	out := captureStdout(t, func() error { return cmdQuery([]string{"-domain", "bibtex", a, b, q}) })
	wantLines(t, out, append(rows, statsLine(keys)))
	out = captureStdout(t, func() error {
		return cmdQuery([]string{"-domain", "bibtex", "-quiet", "-names", "Reference,Key,Last_Name", a, b, system})
	})
	wantLines(t, out, append(counts, statsLine(hits)))
	// -index, -explain and -format json are single-file only, and an
	// unknown -format is rejected before any file is read.
	for _, flags := range [][]string{
		{"-index", "x.qidx"},
		{"-explain"},
		{"-format", "json"},
		{"-format", "bogus"},
	} {
		args := append(append([]string{"-domain", "bibtex"}, flags...), a, b, q)
		if err := cmdQuery(args); err == nil || !strings.Contains(err.Error(), flags[0]) {
			t.Errorf("%v on a multi-file query: err = %v, want it rejected", flags, err)
		}
	}
	missing := filepath.Join(dir, "missing.bib")
	if err := cmdQuery([]string{"-domain", "bibtex", "-format", "bogus", missing, q}); err == nil || !strings.Contains(err.Error(), "-format") {
		t.Errorf("-format bogus on a missing file: err = %v, want the format rejected first", err)
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed; fn's error fails the test.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	read := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		read <- string(data)
	}()
	err = fn()
	os.Stdout = stdout
	w.Close()
	out := <-read
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// wantLines checks out line by line against want.
func wantLines(t *testing.T, out string, want []string) {
	t.Helper()
	got := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d lines, want %d:\n%s", len(got), len(want), out)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d: %q, want %q", i+1, got[i], want[i])
		}
	}
}

func TestCmdEvalTreeRIGDotStatsAdvise(t *testing.T) {
	dir := t.TempDir()
	corpus := writeCorpus(t, dir, 10, 3)
	if err := cmdEval([]string{"-domain", "bibtex", corpus, "outermost(Reference)"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdEval([]string{"-domain", "bibtex", "-text", corpus, `Reference > contains(Last_Name, "Chang")`}); err != nil {
		t.Fatal(err)
	}
	if err := cmdEval([]string{"-domain", "bibtex", corpus, "bogus("}); err == nil {
		t.Error("bad expression accepted")
	}
	if err := cmdTree([]string{"-domain", "bibtex", corpus}); err != nil {
		t.Fatal(err)
	}
	if err := cmdRIG([]string{"-domain", "bibtex"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdRIG([]string{"-domain", "bibtex", "-names", "Reference,Last_Name"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdDot([]string{"-domain", "bibtex"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdStats([]string{"-domain", "bibtex", corpus}); err != nil {
		t.Fatal(err)
	}
	if err := cmdAdvise([]string{"-domain", "bibtex",
		`SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`}); err != nil {
		t.Fatal(err)
	}
	if err := cmdAdvise([]string{"-domain", "bibtex"}); err == nil {
		t.Error("cmdAdvise with no queries accepted")
	}
	if err := cmdAdvise([]string{"-domain", "bibtex", "SELECT nonsense"}); err == nil {
		t.Error("cmdAdvise with a bad query accepted")
	}
	// Missing-file errors surface instead of panicking.
	missing := filepath.Join(dir, "missing.bib")
	if err := cmdStats([]string{"-domain", "bibtex", missing}); err == nil {
		t.Error("cmdStats on a missing file accepted")
	}
	if err := cmdTree([]string{"-domain", "bibtex", missing}); err == nil {
		t.Error("cmdTree on a missing file accepted")
	}
}
