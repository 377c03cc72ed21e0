package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
)

// benchmarkJSON is the driver-facing description at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json and the registry in
// metrics.go equal: names, units, directions, bounds, workloads.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	b := readBenchmarkJSON(t)
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", b.PerLayer, perLayer)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("workloads: json has %d, code %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %d: json %q/%q, code %q/%q", i, w.Name, w.Why, workloadNames[i], workloadWhy[workloadNames[i]])
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(b.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", b.Command, b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	for _, d := range b.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// runBench runs the bench in-process at smoke scale and returns the exit
// code, the result line of each run, and everything printed.
func runBench(t *testing.T, workDir string, args ...string) (int, []result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"-scale", "smoke", "-seconds", "0.5", "-work-dir", workDir}, args...)
	code := realMain(context.Background(), args, &stdout, &stderr)
	var results []result
	sc := bufio.NewScanner(bytes.NewReader(stdout.Bytes()))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "{") {
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("result line %q: %v", line, err)
			}
			results = append(results, r)
		}
	}
	return code, results, stdout.String() + stderr.String()
}

func assertMetrics(t *testing.T, workload string, r result, defs []metricDef) {
	t.Helper()
	if len(r.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", workload, len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", workload, d.Name)
		} else if m.Unit != d.Unit || m.Unit == "" {
			t.Errorf("%s: metric %s has unit %q, want %q", workload, d.Name, m.Unit, d.Unit)
		}
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 || r.errorRate() != 0 {
		t.Errorf("%s: correct=%v failed=%d attempted=%d", workload, r.Correct, r.Failed, r.Attempted)
	}
}

// TestSmoke runs all four workloads — the qofd child included — untraced and
// traced, and asserts the contract: every name in BENCHMARK.json is emitted
// with its unit, no answer is wrong, and the spans are well formed. It
// asserts nothing about how long anything took.
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	dir := t.TempDir()

	resultPath := filepath.Join(dir, "out.json")
	code, results, out := runBench(t, dir, "-out", resultPath)
	if code != 0 || len(results) != len(workloadNames) {
		t.Fatalf("untraced run: exit %d, %d result lines\n%s", code, len(results), out)
	}
	for i, r := range results {
		assertMetrics(t, workloadNames[i], r, b.EndToEnd)
		for _, d := range b.EndToEnd {
			if r.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; they must never be 0", workloadNames[i], d.Name, r.Metrics[d.Name].Value)
			}
		}
	}
	if !strings.Contains(out, "seed=1994") || !strings.Contains(out, "error_rate") {
		t.Errorf("output lacks the seed header or the error_rate line:\n%s", out)
	}
	// The library tail is printed and recorded for -compare, but it is not
	// in the driver's list, and the daemon has none.
	file, err := readResultFile(resultPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		vs, unit := file.values(w, libraryTail.Name, 0)
		if library := w != "daemon_open"; library != (len(vs) == 1) || library && (vs[0] <= 0 || unit != libraryTail.Unit) {
			t.Errorf("%s: p99_ms in the result file: %v %q", w, vs, unit)
		}
	}

	spans := filepath.Join(dir, "spans.jsonl")
	profiles := filepath.Join(dir, "profiles")
	code, results, out = runBench(t, dir, "-trace", "1", "-trace-out", spans, "-profile-dir", profiles, "-out", resultPath)
	if code != 0 || len(results) != len(workloadNames) {
		t.Fatalf("traced run: exit %d, %d result lines\n%s", code, len(results), out)
	}
	for i, r := range results {
		assertMetrics(t, workloadNames[i], r, b.PerLayer)
	}
	// Each workload isolates what it says it does, as far as counts show
	// it at this scale.
	if v := results[0].Metrics["engine.parsed_regions_per_query"].Value; v != 0 {
		t.Errorf("phase1_cold parsed %v regions per query, want 0", v)
	}
	if v := results[1].Metrics["compile.exact_plan_share"].Value; v != 0 {
		t.Errorf("phase2_parse: exact plan share %v, want 0 on the partial index", v)
	}
	checkSpans(t, spans)
	// -out appends: the file now holds both sets of runs, and refuses runs
	// of another window length.
	if file, err = readResultFile(resultPath); err != nil || len(file.Runs) != 2*len(workloadNames) {
		t.Errorf("result file after two invocations: %d runs, %v", len(file.Runs), err)
	}
	var sink bytes.Buffer
	if code := realMain(context.Background(), []string{"-scale", "smoke", "-seconds", "1", "-out", resultPath}, &sink, &sink); code != 1 {
		t.Errorf("appending 1 s runs to a file of 0.5 s runs: exit %d\n%s", code, sink.String())
	}

	// The same seed again: the count metrics of a traced run repeat
	// exactly, and so does the number of answers checked. daemon_open
	// crosses every layer and every file.
	last := len(workloadNames) - 1
	code, again, out := runBench(t, dir, "-trace", "1", "-workload", workloadNames[last])
	if code != 0 || len(again) != 1 {
		t.Fatalf("traced replay: exit %d\n%s", code, out)
	}
	for _, name := range []string{
		"algebra.ops_per_query", "engine.candidates_per_result", "index.bytes_per_doc_byte",
		"serve.envelope_bytes_per_query", "engine.parsed_regions_per_query", "compile.rewrites_per_query",
	} {
		if a, b := results[last].Metrics[name].Value, again[0].Metrics[name].Value; a != b {
			t.Errorf("%s: %s was %v, then %v, with the same seed", workloadNames[last], name, a, b)
		}
	}
	if results[last].Attempted != again[0].Attempted {
		t.Errorf("%s: %d answers checked, then %d", workloadNames[last], results[last].Attempted, again[0].Attempted)
	}
	for _, w := range workloadNames {
		for _, kind := range []string{"cpu", "allocs"} {
			if st, err := os.Stat(filepath.Join(profiles, w+"."+kind+".pprof")); err != nil || st.Size() == 0 {
				t.Errorf("profile %s.%s.pprof missing or empty (%v)", w, kind, err)
			}
		}
	}
}

// checkSpans asserts the trace invariants: the spans of one query share its
// id and cover every rung once, each names the parent the layer table
// gives it, every parent chain ends at the root, and no span ends before it
// starts.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type key struct {
		workload string
		query    int
	}
	perQuery := map[key]map[string]span{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span %q: %v", sc.Text(), err)
		}
		if s.EndNs < s.StartNs || s.StartNs < 0 {
			t.Errorf("span %+v runs backwards", s)
		}
		parent, ok := layerParent[s.Layer]
		if !ok || parent != s.Parent {
			t.Errorf("span %+v: layer table says parent %q", s, parent)
		}
		k := key{s.Workload, s.QueryID}
		if perQuery[k] == nil {
			perQuery[k] = map[string]span{}
		}
		if _, dup := perQuery[k][s.Layer]; dup {
			t.Errorf("query %v has two %s spans", k, s.Layer)
		}
		perQuery[k][s.Layer] = s
	}
	if len(perQuery) != len(workloadNames)*scales["smoke"].ladder {
		t.Errorf("%d traced queries, want %d", len(perQuery), len(workloadNames)*scales["smoke"].ladder)
	}
	for k, layers := range perQuery {
		if len(layers) != len(layerParent) {
			t.Errorf("query %v has %d rungs, want %d", k, len(layers), len(layerParent))
		}
		for layer := range layers {
			hops := 0
			for l := layer; l != ""; l = layerParent[l] {
				if _, ok := layers[l]; !ok {
					t.Errorf("query %v: ancestor %s of %s has no span", k, l, layer)
				}
				if hops++; hops > len(layerParent) {
					t.Fatalf("layer table has a cycle at %s", layer)
				}
			}
		}
	}
}

// TestPlantedWrongFingerprint proves the per-response check can fail: with
// one expected fingerprint corrupted, the library and the daemon path both
// report failed answers and exit non-zero.
func TestPlantedWrongFingerprint(t *testing.T) {
	dir := t.TempDir()
	for _, w := range []string{"hot_repeat", "daemon_open"} {
		code, results, out := runBench(t, dir, "-workload", w, "-plant-wrong-fingerprint")
		if code != 1 || len(results) != 1 {
			t.Fatalf("%s: exit %d, %d result lines\n%s", w, code, len(results), out)
		}
		if r := results[0]; r.Correct || r.Failed == 0 || r.errorRate() <= 0 {
			t.Errorf("%s: correct=%v failed=%d error_rate=%v; the planted fingerprint went unnoticed", w, r.Correct, r.Failed, r.errorRate())
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "huge"}, {"-trace", "2"}, {"-seconds", "0"}, {"-compare", "one.json"}, {"-no-such-flag"}, {"stray"},
	} {
		var out bytes.Buffer
		if code := realMain(context.Background(), args, &out, &out); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
	var out bytes.Buffer
	if code := realMain(context.Background(), []string{"-scale", "smoke", "-workload", "nope"}, &out, &out); code != 1 {
		t.Errorf("unknown workload: exit %d, want 1\n%s", code, out.String())
	}
}

// TestChildIsReaped checks the daemon harness's process hygiene: the port
// comes from the startup line, stop leaves no process behind and may be
// called twice, and a child that cannot start is reported and reaped.
func TestChildIsReaped(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildQofd(ctx, root, dir)
	if err != nil {
		t.Fatal(err)
	}
	corpus := filepath.Join(dir, "corpus")
	if err := writeDocs(corpus, genDocs(1, 2, 20)); err != nil {
		t.Fatal(err)
	}
	client := newClient()
	defer client.CloseIdleConnections()
	c, err := startChild(ctx, bin, corpus, client)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(c.url, "http://127.0.0.1:") || strings.HasSuffix(c.url, ":0") {
		t.Errorf("child url %q", c.url)
	}
	if cpu, err := c.cpuSeconds(); err != nil || cpu < 0 {
		t.Errorf("cpuSeconds: %v, %v", cpu, err)
	}
	if rss, err := c.rssMB(); err != nil || rss <= 0 {
		t.Errorf("rssMB: %v, %v", rss, err)
	}
	pid := c.cmd.Process.Pid
	c.stop()
	c.stop()
	if c.alive() {
		t.Error("child alive after stop")
	}
	if err := syscall.Kill(pid, 0); err == nil {
		t.Errorf("pid %d still exists after stop", pid)
	}
	if _, err := c.cpuSeconds(); err == nil {
		t.Error("cpuSeconds of a reaped child succeeded")
	}

	if _, err := startChild(ctx, bin, filepath.Join(dir, "no-such-dir"), client); err == nil {
		t.Error("a child with no corpus started")
	}
}

func TestGeneratorHygiene(t *testing.T) {
	onTime := openLoopStats{attempted: 3, lateMs: []float64{0.01, 0.02, 5}}
	if onTime.behind() {
		t.Error("a generator late only in its tail counts as behind schedule")
	}
	behind := openLoopStats{attempted: 3, lateMs: []float64{1.5, 2, 2.5}}
	if !behind.behind() {
		t.Error("a generator systematically behind schedule went unnoticed")
	}
}
