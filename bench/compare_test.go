package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// synthetic builds a result file with one workload whose end-to-end metrics
// take, run by run, the values mutate returns for (metric, run).
func synthetic(runs int, value func(metric string, run int) float64, failed int) resultFile {
	f := resultFile{Schema: resultSchema, Scale: "full", Seconds: 10}
	for r := 0; r < runs; r++ {
		rec := runRecord{Workload: "hot_repeat", Seed: int64(r), Samples: 1000}
		rec.Correct, rec.Attempted, rec.Failed = failed == 0, 1000, failed
		rec.Metrics = map[string]measurement{}
		for _, d := range gated {
			rec.Metrics[d.Name] = measurement{Value: value(d.Name, r), Unit: d.Unit}
		}
		f.Runs = append(f.Runs, rec)
	}
	return f
}

func steady(string, int) float64 { return 100 }

// boundOf is the registry's regression bound for an end-to-end metric.
func boundOf(t *testing.T, metric string) float64 {
	t.Helper()
	for _, d := range gated {
		if d.Name == metric {
			return d.Bound
		}
	}
	t.Fatalf("no end-to-end metric %s", metric)
	return 0
}

// only returns a value function that moves one metric to v.
func only(metric string, v float64) func(string, int) float64 {
	return func(m string, _ int) float64 {
		if m == metric {
			return v
		}
		return 100
	}
}

func verdictOf(t *testing.T, rows []compareRow, metric string) compareRow {
	t.Helper()
	for _, r := range rows {
		if r.metric == metric {
			return r
		}
	}
	t.Fatalf("no row for %s", metric)
	return compareRow{}
}

func TestCompareGate(t *testing.T) {
	base := synthetic(10, steady, 0)

	rows, regressed := compareResults(base, synthetic(10, steady, 0))
	if regressed {
		t.Error("identical files regressed")
	}
	if len(rows) != len(gated)+1 {
		t.Errorf("%d rows, want one per gated metric plus error_rate", len(rows))
	}
	for _, r := range rows {
		if r.verdict != verdictOK || r.base != 100 && r.metric != "error_rate" {
			t.Errorf("identical files: %+v", r)
		}
	}

	// qps is better when higher: fewer by more than the bound regresses,
	// more is never a regression; p50 is better when lower.
	past := 100 * (boundOf(t, "qps") + 0.05)
	rows, regressed = compareResults(base, synthetic(10, only("qps", 100-past), 0))
	if r := verdictOf(t, rows, "qps"); !regressed || r.verdict != verdictRegressed || math.Abs(r.worse-past/100) > 1e-9 {
		t.Errorf("qps -%v%%: regressed=%v row=%+v", past, regressed, r)
	}
	if rows, regressed = compareResults(base, synthetic(10, only("qps", 100+past), 0)); regressed {
		t.Errorf("more qps regressed: %+v", rows)
	}
	rows, regressed = compareResults(base, synthetic(10, only("p50_ms", 100-past), 0))
	if r := verdictOf(t, rows, "p50_ms"); regressed || r.worse >= 0 {
		t.Errorf("p50 -%v%%: regressed=%v, reads as worse by %v", past, regressed, r.worse)
	}
	justPast := 100 * (1 + boundOf(t, "p50_ms") + 0.01)
	if _, regressed = compareResults(base, synthetic(10, only("p50_ms", justPast), 0)); !regressed {
		t.Errorf("p50 at %v%% of base is past its bound but passed", justPast)
	}
	justInside := 100 * (1 + boundOf(t, "p50_ms") - 0.01)
	if _, regressed = compareResults(base, synthetic(10, only("p50_ms", justInside), 0)); regressed {
		t.Errorf("p50 at %v%% of base is inside its bound but failed", justInside)
	}

	// Within the bound on medians, but the runs spread wider than the
	// bound: the row must say unresolved, not ok — and not fail.
	noisy := synthetic(10, func(m string, r int) float64 {
		if m == "qps" {
			return 100 + 12*float64(r-5) // 40..148, median ~100
		}
		return 100
	}, 0)
	rows, regressed = compareResults(base, noisy)
	if r := verdictOf(t, rows, "qps"); regressed || r.verdict != verdictUnresolved || r.spread <= r.bound {
		t.Errorf("noisy qps: regressed=%v row=%+v", regressed, r)
	}

	// error_rate: any increase fails.
	wrong := synthetic(10, steady, 1)
	rows, regressed = compareResults(base, wrong)
	if r := verdictOf(t, rows, "error_rate"); !regressed || r.verdict != verdictRegressed || r.value != 0.001 {
		t.Errorf("error_rate 0 -> 0.001: regressed=%v row=%+v", regressed, r)
	}
	if _, regressed = compareResults(wrong, wrong); regressed {
		t.Error("an unchanged error_rate regressed")
	}
	// Failures in a minority of runs must not vanish in a median: one run
	// of ten that fails half its answers is an increase.
	oneBad := synthetic(10, steady, 0)
	oneBad.Runs[3].Failed, oneBad.Runs[3].Correct = 500, false
	rows, regressed = compareResults(base, oneBad)
	if r := verdictOf(t, rows, "error_rate"); !regressed || r.verdict != verdictRegressed || r.value != 0.05 {
		t.Errorf("one failing run of ten: regressed=%v row=%+v", regressed, r)
	}
}

// TestCompareMissingIsRegressed: a new file that lacks a workload or a gated
// metric the old file has cannot pass by omission.
func TestCompareMissingIsRegressed(t *testing.T) {
	base := synthetic(10, steady, 0)
	second := synthetic(10, steady, 0)
	for i := range second.Runs {
		second.Runs[i].Workload = "phase1_cold"
	}
	both := base
	both.Runs = append(append([]runRecord(nil), base.Runs...), second.Runs...)

	rows, regressed := compareResults(both, base) // phase1_cold dropped
	if !regressed {
		t.Fatal("a dropped workload passed")
	}
	missing := 0
	for _, r := range rows {
		if r.workload == "phase1_cold" {
			if r.verdict != verdictRegressed || r.runsNew != 0 {
				t.Errorf("dropped workload: %+v", r)
			}
			missing++
		} else if r.verdict != verdictOK {
			t.Errorf("kept workload: %+v", r)
		}
	}
	if missing != len(gated)+1 {
		t.Errorf("%d rows for the dropped workload, want %d", missing, len(gated)+1)
	}

	lacks := synthetic(10, steady, 0)
	for i := range lacks.Runs {
		delete(lacks.Runs[i].Metrics, "p50_ms")
	}
	rows, regressed = compareResults(base, lacks)
	if r := verdictOf(t, rows, "p50_ms"); !regressed || r.verdict != verdictRegressed {
		t.Errorf("a dropped metric: regressed=%v row=%+v", regressed, r)
	}
	// The other way round is a metric the old file never had: no row.
	rows, regressed = compareResults(lacks, base)
	if regressed {
		t.Errorf("a metric new in the new file regressed: %+v", rows)
	}
	for _, r := range rows {
		if r.metric == "p50_ms" {
			t.Errorf("row for a metric the base lacks: %+v", r)
		}
	}
	var out bytes.Buffer
	printComparison(&out, "old", "new", func() []compareRow { rows, _ := compareResults(base, lacks); return rows }())
	if !strings.Contains(out.String(), "missing") {
		t.Errorf("the table does not say what is missing:\n%s", out.String())
	}
}

func TestComparePerLayerRowsAreNeverGated(t *testing.T) {
	traced := func(v float64) resultFile {
		f := synthetic(2, steady, 0)
		rec := runRecord{Workload: "hot_repeat", Trace: 1}
		rec.Correct, rec.Attempted = true, 10
		rec.Metrics = map[string]measurement{"engine.execute_us": {Value: v, Unit: "us"}}
		f.Runs = append(f.Runs, rec)
		return f
	}
	rows, regressed := compareResults(traced(100), traced(300))
	if r := verdictOf(t, rows, "engine.execute_us"); regressed || r.verdict != verdictInfo || r.value != 300 {
		t.Errorf("per-layer row: regressed=%v %+v", regressed, r)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := quartileSpread(vs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if got := quartileSpread([]float64{1, 2}); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread of [1,2] = %v, want 1", got)
	}
	if quartileSpread([]float64{5}) != 0 || quartileSpread(nil) != 0 {
		t.Error("fewer than two values have no spread")
	}
}

func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, f resultFile) string {
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", synthetic(10, steady, 0))
	same := write("same.json", synthetic(10, steady, 0))
	bad := write("bad.json", synthetic(10, only("mem_mb", 100*(1+boundOf(t, "mem_mb")+0.01)), 0))
	short := synthetic(10, steady, 0)
	short.Seconds = 5
	other := write("short.json", short)
	old := synthetic(1, steady, 0)
	old.Schema = 0
	stale := write("stale.json", old)

	var out bytes.Buffer
	if code := compareFiles(base, same, &out, &out); code != 0 || !strings.Contains(out.String(), "PASS") {
		t.Errorf("identical files: exit %d\n%s", code, out.String())
	}
	for _, want := range []string{"hot_repeat", "qps", "ratio", "base", "1.000"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if code := compareFiles(base, bad, &out, &out); code != 1 || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("mem_mb past its bound: exit %d\n%s", code, out.String())
	}
	for _, p := range []string{other, stale, filepath.Join(dir, "missing.json")} {
		out.Reset()
		if code := compareFiles(base, p, &out, &out); code != 2 {
			t.Errorf("%s: exit %d, want 2\n%s", filepath.Base(p), code, out.String())
		}
	}
	// The flag form reaches the same code.
	out.Reset()
	if code := realMain(context.Background(), []string{"-compare", base, bad}, &out, &out); code != 1 {
		t.Errorf("bench -compare base bad: exit %d", code)
	}
}
