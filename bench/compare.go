package main

// The compare gate: one row per (metric, workload) with the ratio and its
// base, "unresolved" where the recorded spread exceeds the bound, and exit 1
// when any end-to-end metric is worse than its bound.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// verdicts of one compared row.
const (
	verdictOK         = "ok"         // within the bound, and the spread is small enough to say so
	verdictUnresolved = "unresolved" // within the bound, but the run-to-run spread exceeds it
	verdictRegressed  = "REGRESSED"  // worse than the bound
	verdictInfo       = "-"          // per-layer: reported, never gated
)

type compareRow struct {
	workload, metric, unit string
	base, value            float64 // medians of the old and the new file
	runsOld, runsNew       int
	spread                 float64 // the larger of the two files' IQR/median
	worse                  float64 // share by which value is worse than base; negative = better
	bound                  float64
	verdict                string
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives. Fewer than two values have no
// spread.
func quartileSpread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / med)
}

// values gathers one metric's values over a file's runs of one workload and
// trace mode.
func (f resultFile) values(workload, metric string, trace int) (vs []float64, unit string) {
	for _, r := range f.Runs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			vs, unit = append(vs, m.Value), m.Unit
		}
	}
	return vs, unit
}

// errorRate pools a workload's untraced runs: every failed answer over every
// attempted one, so a failure in a single run shows however many runs passed.
func (f resultFile) errorRate(workload string) (rate float64, runs int) {
	var failed, attempted int
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == 0 {
			failed, attempted, runs = failed+r.Failed, attempted+r.Attempted, runs+1
		}
	}
	if attempted == 0 {
		return 1, runs // nothing was answered: nothing was answered correctly
	}
	return float64(failed) / float64(attempted), runs
}

func (f resultFile) workloads() []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range f.Runs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			out = append(out, r.Workload)
		}
	}
	return out
}

// compareResults builds the table. regressed reports whether any gated row
// is worse than its bound. A gated (workload, metric) pair the old file has
// and the new one lacks is a regression: a run that dropped a workload or a
// metric must not pass by omission.
func compareResults(old, cur resultFile) (rows []compareRow, regressed bool) {
	for _, wl := range old.workloads() {
		for trace, defs := range [][]metricDef{gated, perLayer} {
			for _, d := range defs {
				ov, unit := old.values(wl, d.Name, trace)
				nv, _ := cur.values(wl, d.Name, trace)
				if len(ov) == 0 || (trace == 1 && len(nv) == 0) {
					continue
				}
				row := compareRow{
					workload: wl, metric: d.Name, unit: unit,
					base: median(ov), runsOld: len(ov), runsNew: len(nv),
					bound: d.Bound, verdict: verdictInfo,
				}
				if len(nv) == 0 {
					row.value, row.worse, row.verdict = math.NaN(), math.Inf(1), verdictRegressed
					rows, regressed = append(rows, row), true
					continue
				}
				row.value = median(nv)
				row.spread = math.Max(quartileSpread(ov), quartileSpread(nv))
				switch {
				case row.base == 0:
					row.worse = 0
				case d.Better == lower:
					row.worse = row.value/row.base - 1
				default:
					row.worse = 1 - row.value/row.base
				}
				if trace == 0 {
					switch {
					case row.worse > row.bound:
						row.verdict, regressed = verdictRegressed, true
					case row.spread > row.bound:
						row.verdict = verdictUnresolved
					default:
						row.verdict = verdictOK
					}
				}
				rows = append(rows, row)
			}
		}
		// error_rate: any increase is a regression, so it is compared by
		// difference, not by ratio, and over all runs at once.
		row := compareRow{workload: wl, metric: "error_rate", unit: "ratio", verdict: verdictOK}
		row.base, row.runsOld = old.errorRate(wl)
		row.value, row.runsNew = cur.errorRate(wl)
		if row.runsOld == 0 {
			continue // the old file has only traced runs of this workload
		}
		if row.worse = row.value - row.base; row.worse > 0 {
			row.verdict, regressed = verdictRegressed, true
		}
		rows = append(rows, row)
	}
	return rows, regressed
}

func readResultFile(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return f, fmt.Errorf("%s: result schema %d, this bench reads %d", path, f.Schema, resultSchema)
	}
	return f, nil
}

// compareFiles is `bench -compare old.json new.json`; it returns the exit
// code.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	old, err := readResultFile(oldPath)
	var cur resultFile
	if err == nil {
		cur, err = readResultFile(newPath)
	}
	if err == nil && (old.Scale != cur.Scale || old.Seconds != cur.Seconds) {
		err = fmt.Errorf("the files are not comparable: %s/%gs against %s/%gs", old.Scale, old.Seconds, cur.Scale, cur.Seconds)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: -compare: %v\n", err)
		return 2
	}
	rows, regressed := compareResults(old, cur)
	printComparison(stdout, oldPath, newPath, rows)
	if regressed {
		fmt.Fprintln(stdout, "FAIL: at least one end-to-end metric is worse than its bound")
		return 1
	}
	fmt.Fprintln(stdout, "PASS: no end-to-end metric is worse than its bound")
	return 0
}

func printComparison(w io.Writer, oldPath, newPath string, rows []compareRow) {
	fmt.Fprintf(w, "# base: %s   new: %s   (medians; ratio = new/base; spread = IQR/median, the larger of the two files)\n", oldPath, newPath)
	fmt.Fprintf(w, "%-13s %-40s %14s %14s %-6s %7s %8s %7s %6s  %s\n",
		"workload", "metric", "base", "new", "unit", "ratio", "worse", "spread", "bound", "verdict")
	for _, r := range rows {
		ratioText, valueText, worseText := "      -", fmt.Sprintf("%14.4f", r.value), fmt.Sprintf("%+7.1f%%", 100*r.worse)
		if r.runsNew == 0 {
			valueText, worseText = fmt.Sprintf("%14s", "missing"), fmt.Sprintf("%8s", "-")
		} else if r.base != 0 {
			ratioText = fmt.Sprintf("%7.3f", r.value/r.base)
		}
		bound := "     -"
		if r.verdict != verdictInfo {
			bound = fmt.Sprintf("%5.1f%%", 100*r.bound)
		}
		fmt.Fprintf(w, "%-13s %-40s %14.4f %s %-6s %s %s %6.1f%% %s  %s (n=%d/%d)\n",
			r.workload, r.metric, r.base, valueText, r.unit, ratioText, worseText, 100*r.spread, bound, r.verdict, r.runsOld, r.runsNew)
	}
}
