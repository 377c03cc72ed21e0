// Package lint hosts qof's project-specific static analyzers and the glue
// that runs them: a registry, a per-package runner, and the
// "qoflint:allow" suppression convention. The analyzers enforce the
// invariants no test can see: mutex-guarded state, pooled-buffer lifetimes,
// and panic isolation on goroutines. See docs/LINTING.md.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"qof/internal/lint/analysis"
	"qof/internal/lint/loader"
)

// All returns every qoflint analyzer in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		LockCheck,
		PoolEscape,
		GoRecover,
	}
}

// objOf resolves an identifier to the object it uses or defines.
func objOf(pass *analysis.Pass, id *ast.Ident) types.Object {
	if obj := pass.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Defs[id]
}

// Finding is one diagnostic resolved to a printable position.
type Finding struct {
	Pos      token.Position
	Message  string
	Analyzer string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.Pos, f.Message, f.Analyzer)
}

// RunPackage applies the analyzers to one loaded package and returns the
// surviving findings (after qoflint:allow suppression) in a fully
// deterministic order: position, then analyzer, then message — total, so
// repeated runs are byte-stable even when one line carries several findings.
//
// Analyzers listed in Requires run first and exactly once per package;
// their results are shared with every dependent through pass.ResultOf.
func RunPackage(pkg *loader.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	sup := collectSuppressions(pkg)
	var out []Finding
	results := make(map[*analysis.Analyzer]any)
	ran := make(map[*analysis.Analyzer]bool)

	var run func(a *analysis.Analyzer, report bool) error
	run = func(a *analysis.Analyzer, report bool) error {
		if ran[a] {
			return nil
		}
		ran[a] = true
		for _, req := range a.Requires {
			if err := run(req, false); err != nil {
				return err
			}
		}
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			ResultOf:  make(map[*analysis.Analyzer]any, len(a.Requires)),
		}
		for _, req := range a.Requires {
			pass.ResultOf[req] = results[req]
		}
		name := a.Name
		pass.Report = func(d analysis.Diagnostic) {
			if !report {
				return
			}
			pos := pkg.Fset.Position(d.Pos)
			if sup.allows(name, pos) {
				return
			}
			out = append(out, Finding{Pos: pos, Message: d.Message, Analyzer: name})
		}
		res, err := a.Run(pass)
		if err != nil {
			return fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
		}
		results[a] = res
		return nil
	}
	for _, a := range analyzers {
		if err := run(a, true); err != nil {
			return nil, err
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if out[i].Analyzer != out[j].Analyzer {
			return out[i].Analyzer < out[j].Analyzer
		}
		return out[i].Message < out[j].Message
	})
	return out, nil
}

// allowRx matches suppression comments: "//qoflint:allow name1,name2 reason".
var allowRx = regexp.MustCompile(`qoflint:allow\s+([\w,]+)`)

// suppression is one allow range: diagnostics from the named analyzers are
// dropped on lines [from, to] of the file.
type suppression struct {
	file     string
	from, to int
	names    map[string]bool
}

type suppressions []suppression

// collectSuppressions gathers qoflint:allow comments. A comment suppresses
// its own line and the next line; a comment in a function's doc comment
// suppresses the whole function.
func collectSuppressions(pkg *loader.Package) suppressions {
	var out suppressions
	add := func(file string, from, to int, names string) {
		set := make(map[string]bool)
		for _, n := range strings.Split(names, ",") {
			if n = strings.TrimSpace(n); n != "" {
				set[n] = true
			}
		}
		out = append(out, suppression{file: file, from: from, to: to, names: set})
	}
	for _, f := range pkg.Files {
		// Function-doc suppressions cover the whole declaration.
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			if m := allowRx.FindStringSubmatch(fd.Doc.Text()); m != nil {
				start := pkg.Fset.Position(fd.Pos())
				end := pkg.Fset.Position(fd.End())
				add(start.Filename, start.Line, end.Line, m[1])
			}
		}
		// Line suppressions cover the comment's line and the next.
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if m := allowRx.FindStringSubmatch(c.Text); m != nil {
					pos := pkg.Fset.Position(c.Pos())
					add(pos.Filename, pos.Line, pos.Line+1, m[1])
				}
			}
		}
	}
	return out
}

func (s suppressions) allows(analyzer string, pos token.Position) bool {
	for _, sup := range s {
		if sup.file == pos.Filename && sup.from <= pos.Line && pos.Line <= sup.to && sup.names[analyzer] {
			return true
		}
	}
	return false
}
