// Command bench is the repository's one benchmark: seeded inputs driven
// through every layer, with a correctness oracle, end-to-end metrics from an
// untraced run, per-layer metrics from a traced ladder replay, and a compare
// gate. See README.md in this directory and BENCHMARK.json at the root.
//
//	go run ./bench                                    all four workloads, tracing off
//	go run ./bench -workload hot_repeat -seed 7       one workload
//	go run ./bench -trace 1 -trace-out spans.jsonl    per-layer metrics and spans
//	go run ./bench -runs 10 -out new.json             a result file for -compare (appends)
//	go run ./bench -compare old.json new.json         the regression gate
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := realMain(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// runRecord is one run in a result file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Samples  int    `json:"samples"`
	result
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Schema  int         `json:"schema"`
	Scale   string      `json:"scale"`
	Seconds float64     `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

const resultSchema = 1

// realMain is main without the process: it returns the exit code. 0 means
// every run was valid and every answer correct; 1 a failed check, an
// invalid run or a regression; 2 a usage error.
func realMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workloadFlag := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (default: all)")
	seed := fs.Int64("seed", 1994, "seed for corpora, pools, Zipf draws and the arrival schedule")
	seconds := fs.Float64("seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the ladder replay")
	traceOut := fs.String("trace-out", "", "with -trace 1: write the spans to this file, one JSON object per line")
	scaleFlag := fs.String("scale", "full", "input sizes: full or smoke")
	runs := fs.Int("runs", 1, "repeat each workload this many times, with seeds seed, seed+1, ...")
	outFile := fs.String("out", "", "append every run to this result file (input of -compare)")
	profileDir := fs.String("profile-dir", "", "with -trace 1: write CPU and alloc pprof profiles per workload here")
	workDir := fs.String("work-dir", "", "directory for the qofd build and corpus files (default: .bench_build in the checkout)")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare old.json new.json")
	plantWrong := fs.Bool("plant-wrong-fingerprint", false, "self-test: corrupt one expected fingerprint; the run must report errors and exit 1")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare old.json new.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	sc, ok := scales[*scaleFlag]
	if !ok || fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 || *runs < 1 {
		fmt.Fprintln(stderr, "bench: bad arguments")
		fs.Usage()
		return 2
	}
	names := workloadNames
	if *workloadFlag != "" {
		names = []string{*workloadFlag}
	}
	if *workDir == "" {
		*workDir = defaultWorkDir()
	}

	var spanOut io.Writer
	if *traceOut != "" && *trace == 1 {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintf(stderr, "bench: closing %s: %v\n", *traceOut, err)
			}
		}()
		spanOut = f
	}

	// -out appends, so that two commits can be measured in alternation, one
	// run a side at a time, into one file each.
	file := resultFile{Schema: resultSchema, Scale: sc.name, Seconds: *seconds}
	if *outFile != "" {
		prev, err := readResultFile(*outFile)
		switch {
		case errors.Is(err, os.ErrNotExist):
		case err != nil:
			fmt.Fprintf(stderr, "bench: -out: %v\n", err)
			return 1
		case prev.Scale != file.Scale || prev.Seconds != file.Seconds:
			fmt.Fprintf(stderr, "bench: -out: %s holds %s/%gs runs, not %s/%gs\n", *outFile, prev.Scale, prev.Seconds, file.Scale, file.Seconds)
			return 1
		default:
			file.Runs = prev.Runs
		}
	}
	code := 0
	for r := 0; r < *runs; r++ {
		for _, name := range names {
			cfg := &config{
				sc: sc, seed: *seed + int64(r), seconds: *seconds, workDir: *workDir,
				plantWrong: *plantWrong, traceOut: spanOut, profileDir: *profileDir, log: stdout,
			}
			rec, err := runOne(ctx, name, *trace, cfg)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
				return 1
			}
			if !rec.Correct {
				code = 1
			}
			file.Runs = append(file.Runs, *rec)
		}
	}
	if *outFile != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(*outFile, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: writing %s: %v\n", *outFile, err)
			return 1
		}
	}
	return code
}

// runOne generates one workload's inputs, runs it traced or untraced, and
// prints the header, every metric with its unit, and the result line.
func runOne(ctx context.Context, name string, trace int, cfg *config) (*runRecord, error) {
	w, err := newWorkload(name, cfg.sc, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	cfg.logf("# qof bench: workload=%s seed=%d scale=%s seconds=%g trace=%d", w.name, cfg.seed, cfg.sc.name, cfg.seconds, trace)
	cfg.logf("# why: %s", w.why)
	cfg.logf("# inputs: %d files, %d bytes, pool of %d queries", len(w.docs), docBytes(w.docs), len(w.pool))
	var out *outcome
	if trace == 1 {
		out, err = runTraced(ctx, w, cfg)
	} else {
		out, err = runUntraced(ctx, w, cfg)
	}
	if err != nil {
		return nil, err
	}
	cfg.logf("# oracle: %d pool queries equal scan.FullScan on the same-seed small corpus, %d equal generator ground truth at full size",
		out.oracle.fullScanChecked, out.oracle.truthChecked)
	printMetrics(cfg.log, w.name, out)
	line, err := json.Marshal(out.result)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "%s\n", line)
	// The result file also carries what -compare gates beside the driver's
	// list: the library tail.
	rec := &runRecord{Workload: w.name, Seed: cfg.seed, Trace: trace, Samples: out.samples, result: out.result}
	rec.Metrics = out.reported()
	return rec, nil
}

// printMetrics prints every metric by name with its unit, the sample count
// next to the percentiles, and error_rate with its counts.
func printMetrics(w io.Writer, workload string, out *outcome) {
	metrics := out.reported()
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := metrics[n]
		note := ""
		if strings.Contains(n, "p50") || strings.Contains(n, "p99") {
			note = fmt.Sprintf("  (n=%d)", out.samples)
		}
		fmt.Fprintf(w, "%-13s %-40s %14.4f %s%s\n", workload, n, m.Value, m.Unit, note)
	}
	fmt.Fprintf(w, "%-13s %-40s %14.6f ratio  (%d failed / %d attempted)\n",
		workload, "error_rate", out.errorRate(), out.Failed, out.Attempted)
}
