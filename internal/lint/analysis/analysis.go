// Package analysis is a minimal, dependency-free core of the
// golang.org/x/tools/go/analysis API, sufficient for qof's project-specific
// analyzers. The shapes (Analyzer, Pass, Diagnostic) mirror the upstream
// package deliberately: if the real module ever becomes available, the
// analyzers compile against it by swapping this import.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one analysis: a name, documentation, and a Run
// function applied to one package at a time.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, -list output and
	// qoflint:allow suppression comments. By convention it is a short
	// lowercase word.
	Name string

	// Doc is the analyzer's documentation: first line is a one-sentence
	// summary, the rest elaborates the rule and its escape hatches.
	Doc string

	// Requires lists analyzers whose results this one consumes. The driver
	// runs each requirement once per package — regardless of how many
	// analyzers require it — and delivers its Run result through
	// pass.ResultOf. Requirements must form a DAG.
	Requires []*Analyzer

	// Run applies the analysis to a package. Findings are delivered through
	// pass.Report; the error return is for operational failures only
	// (malformed package, impossible state), not for findings. The return
	// value is exposed to dependents via Pass.ResultOf.
	Run func(*Pass) (any, error)
}

// Pass is the interface between one run of an analyzer and the driver: one
// type-checked package plus a sink for diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. The driver owns filtering
	// (suppression comments) and formatting.
	Report func(Diagnostic)

	// ResultOf holds the Run results of the analyzers listed in
	// Analyzer.Requires, keyed by the required analyzer. Shared facts (a
	// package's control-flow graphs, say) are computed once per package
	// and handed to every dependent through this map.
	ResultOf map[*Analyzer]any
}

// Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}
