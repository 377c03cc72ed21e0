package qof_test

// CI-pattern gate: a `go test -run`/`-bench`/`-fuzz` step in the workflow
// whose pattern matches no function runs nothing and still passes, so a
// renamed or deleted test silently empties the step that named it. The
// workflow is read as text and the packages' test functions with go/parser;
// no go command is started.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

const workflow = ".github/workflows/ci.yml"

// selection is one pattern flag of one go test command in the workflow.
type selection struct {
	line    int
	flag    string // run, bench or fuzz
	pattern string
	pkgs    []string
}

// selectedKinds names the functions each flag selects from.
var selectedKinds = map[string][]string{
	"run":   {"Test", "Fuzz", "Example"},
	"bench": {"Benchmark"},
	"fuzz":  {"Fuzz"},
}

// TestCIPatternsSelectSomething: every |-alternative of every -run, -bench
// and -fuzz pattern in the workflow matches a function of the kind the flag
// selects that one of the step's packages declares. A pattern of ^$ selects
// nothing on purpose. A planted rename of what one alternative matches must
// be reported.
func TestCIPatternsSelectSomething(t *testing.T) {
	src, err := os.ReadFile(workflow)
	if err != nil {
		t.Fatal(err)
	}
	sels := goTestSelections(string(src))
	if len(sels) < 20 {
		t.Fatalf("found %d go test patterns in %s; the reader lost track of the workflow", len(sels), workflow)
	}
	decls := map[string][]string{}
	var planted *selection
	for i := range sels {
		s := &sels[i]
		names := declaredTests(t, decls, s.pkgs)
		for _, alt := range unmatched(s, names) {
			t.Errorf("%s:%d: -%s alternative %q matches no function in %s", workflow, s.line, s.flag, alt, strings.Join(s.pkgs, " "))
		}
		if planted == nil && s.flag == "run" && len(alternatives(s.pattern)) > 1 {
			planted = s
		}
	}

	// Rename away every function the planted step's last alternative
	// matches: the check must name that alternative.
	alts := alternatives(planted.pattern)
	last := regexp.MustCompile(alts[len(alts)-1])
	var renamed []string
	for _, name := range declaredTests(t, decls, planted.pkgs) {
		if last.MatchString(name) {
			name = "TestPlantedRename"
		}
		renamed = append(renamed, name)
	}
	if got := unmatched(planted, renamed); !slices.Contains(got, alts[len(alts)-1]) {
		t.Errorf("%s:%d: with what %q matches renamed, the check reports %q", workflow, planted.line, alts[len(alts)-1], got)
	}
}

// goTestSelections reads the go test commands out of the workflow: one
// selection per pattern flag, with the packages the command names.
func goTestSelections(yml string) []selection {
	var out []selection
	for i, line := range strings.Split(yml, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok {
			continue
		}
		var sels []selection
		var pkgs []string
		fields := shellFields(cmd)
		for j := 0; j < len(fields); j++ {
			f := fields[j]
			if f == "|" || f == "||" || f == "&&" || f == ";" || strings.HasPrefix(f, ">") {
				break
			}
			name, value, hasValue := strings.Cut(strings.TrimPrefix(f, "-"), "=")
			if _, ok := selectedKinds[name]; ok && strings.HasPrefix(f, "-") {
				if !hasValue && j+1 < len(fields) {
					j++
					value = fields[j]
				}
				sels = append(sels, selection{line: i + 1, flag: name, pattern: value})
			} else if f == "." || strings.HasPrefix(f, "./") {
				pkgs = append(pkgs, f)
			}
		}
		for _, s := range sels {
			s.pkgs = pkgs
			out = append(out, s)
		}
	}
	return out
}

// shellFields splits a command line into words, honouring single and
// double quotes.
func shellFields(s string) []string {
	var out []string
	var cur strings.Builder
	word, quote := false, byte(0)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case quote != 0:
			if c == quote {
				quote = 0
			} else {
				cur.WriteByte(c)
			}
		case c == '\'' || c == '"':
			quote, word = c, true
		case c == ' ' || c == '\t':
			if word {
				out, word = append(out, cur.String()), false
				cur.Reset()
			}
		default:
			cur.WriteByte(c)
			word = true
		}
	}
	if word {
		out = append(out, cur.String())
	}
	return out
}

// alternatives splits the top level of a pattern (go test matches the part
// before the first '/' against top-level names) at its unbracketed '|'s.
func alternatives(pattern string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(pattern); i++ {
		switch pattern[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '/':
			if depth == 0 {
				return append(out, pattern[start:i])
			}
		case '|':
			if depth == 0 {
				out = append(out, pattern[start:i])
				start = i + 1
			}
		}
	}
	return append(out, pattern[start:])
}

// unmatched returns the alternatives of the selection's pattern that match
// none of the names of the kinds its flag selects.
func unmatched(s *selection, names []string) []string {
	if s.pattern == "^$" {
		return nil
	}
	var out []string
	for _, alt := range alternatives(s.pattern) {
		re := regexp.MustCompile(alt)
		found := false
		for _, name := range names {
			for _, kind := range selectedKinds[s.flag] {
				found = found || strings.HasPrefix(name, kind) && re.MatchString(name)
			}
		}
		if !found {
			out = append(out, alt)
		}
	}
	return out
}

// declaredTests lists the top-level functions the packages' _test.go files
// declare; a package ending in /... takes in every directory below it.
// decls caches each directory's list.
func declaredTests(t *testing.T, decls map[string][]string, pkgs []string) []string {
	t.Helper()
	var dirs []string
	for _, pkg := range pkgs {
		root, all := strings.CutSuffix(pkg, "/...")
		if !all {
			dirs = append(dirs, filepath.Clean(pkg))
			continue
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if base := d.Name(); path != root && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return filepath.SkipDir
			}
			dirs = append(dirs, path)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var out []string
	for _, dir := range dirs {
		names, ok := decls[dir]
		if !ok {
			if _, err := os.Stat(dir); err != nil {
				t.Fatalf("%s names package %s: %v", workflow, dir, err)
			}
			files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
			if err != nil {
				t.Fatal(err)
			}
			fset := token.NewFileSet()
			for _, file := range files {
				f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				for _, decl := range f.Decls {
					if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
						names = append(names, fn.Name.Name)
					}
				}
			}
			decls[dir] = names
		}
		out = append(out, names...)
	}
	return out
}
