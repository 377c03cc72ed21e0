// Command qofbench regenerates the experiment tables of EXPERIMENTS.md:
// for every performance claim in "Optimizing Queries on Files" (Consens &
// Milo, SIGMOD 1994) it generates a workload, builds the indexes, runs the
// engine and the baselines, and prints one table.
//
// Usage:
//
//	qofbench [-exp all|e1,e4,...] [-quick] [-sizes 1000,5000,20000] [-repeats 5]
//
// The repository's end-to-end benchmark is `go run ./bench`.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"qof/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids (e1..e10) or 'all'")
	quick := flag.Bool("quick", false, "use reduced sizes for a fast smoke run")
	sizes := flag.String("sizes", "", "override corpus sizes, e.g. 1000,5000,20000")
	repeats := flag.Int("repeats", 0, "override timed repetitions per cell")
	flag.Parse()

	opt := experiments.Default()
	if *quick {
		opt = experiments.Quick()
	}
	if *sizes != "" {
		opt.Sizes = nil
		for _, s := range strings.Split(*sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 0 {
				fatalf("bad -sizes value %q", s)
			}
			opt.Sizes = append(opt.Sizes, n)
		}
	}
	if *repeats > 0 {
		opt.Repeats = *repeats
	}

	var selected []experiments.Experiment
	if *exp == "all" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, ok := experiments.Lookup(strings.TrimSpace(strings.ToLower(id)))
			if !ok {
				fatalf("unknown experiment %q (have e1..e10)", id)
			}
			selected = append(selected, e)
		}
	}

	for _, e := range selected {
		table, err := e.Run(opt)
		if err != nil {
			fatalf("%s: %v", e.ID, err)
		}
		fmt.Println(table)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "qofbench: "+format+"\n", args...)
	os.Exit(1)
}
