// Command qoflint runs qof's project-specific analyzers (see
// docs/LINTING.md) over packages of this module, in the spirit of a
// golang.org/x/tools multichecker but self-contained: the analyzers
// enforce the lock, pool and goroutine invariants that ordinary vet checks
// cannot know about and that no test observes.
//
// Usage:
//
//	go run ./cmd/qoflint ./...             # whole module
//	go run ./cmd/qoflint ./internal/region # one package
//	go run ./cmd/qoflint -list
//
// Exit status: 0 clean, 1 findings, 2 operational failure. Findings are
// printed as file:line:col: message [analyzer]. A finding is suppressed by
// a "//qoflint:allow <analyzer> <reason>" comment on, or just above, the
// offending line (or in the function's doc comment to cover the whole
// function).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"qof/internal/lint"
	"qof/internal/lint/loader"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("qoflint", flag.ContinueOnError)
	list := fs.Bool("list", false, "list analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(out, "%-12s %s\n", a.Name, firstLine(a.Doc))
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	l, err := loader.New(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "qoflint:", err)
		return 2
	}
	pkgs, err := l.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qoflint:", err)
		return 2
	}
	findings := 0
	for _, pkg := range pkgs {
		found, err := lint.RunPackage(pkg, lint.All())
		if err != nil {
			fmt.Fprintln(os.Stderr, "qoflint:", err)
			return 2
		}
		for _, f := range found {
			fmt.Fprintln(out, f)
			findings++
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "qoflint: %d finding(s)\n", findings)
		return 1
	}
	return 0
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
