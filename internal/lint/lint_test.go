package lint_test

import (
	"testing"

	"qof/internal/lint"
	"qof/internal/lint/analysis"
	"qof/internal/lint/cfg"
	"qof/internal/lint/linttest"
	"qof/internal/lint/loader"
)

func TestLockCheckFixture(t *testing.T) {
	linttest.Run(t, lint.LockCheck, "testdata/lockcheck")
}

func TestPoolEscapeFixture(t *testing.T) {
	linttest.Run(t, lint.PoolEscape, "testdata/poolescape")
}

func TestGoRecoverFixture(t *testing.T) {
	linttest.Run(t, lint.GoRecover, "testdata/gorecover")
}

// TestRepoIsClean runs the whole suite over the real tree: the invariants
// the analyzers encode are supposed to hold in shipped code, so any
// finding here is either a real bug or a missing annotation.
func TestRepoIsClean(t *testing.T) {
	l, err := loader.New("../../")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	for _, pkg := range pkgs {
		findings, err := lint.RunPackage(pkg, lint.All())
		if err != nil {
			t.Errorf("%s: %v", pkg.Path, err)
			continue
		}
		for _, f := range findings {
			t.Errorf("%s", f)
		}
	}
}

// TestFactSharedAcrossAnalyzers pins the Requires contract: the CFG fact is
// built once per package and every dependent receives the same result
// object through pass.ResultOf.
func TestFactSharedAcrossAnalyzers(t *testing.T) {
	l, err := loader.New("../../")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := l.Load("./internal/lint/testdata/lockcheck")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	var seen []any
	mk := func(name string) *analysis.Analyzer {
		return &analysis.Analyzer{
			Name:     name,
			Doc:      "records the shared CFG fact",
			Requires: []*analysis.Analyzer{cfg.FactAnalyzer},
			Run: func(pass *analysis.Pass) (any, error) {
				seen = append(seen, pass.ResultOf[cfg.FactAnalyzer])
				return nil, nil
			},
		}
	}
	if _, err := lint.RunPackage(pkgs[0], []*analysis.Analyzer{mk("facta"), mk("factb")}); err != nil {
		t.Fatalf("RunPackage: %v", err)
	}
	if len(seen) != 2 {
		t.Fatalf("dependents run = %d, want 2", len(seen))
	}
	first, ok := seen[0].(*cfg.PackageCFGs)
	if !ok || first == nil {
		t.Fatalf("ResultOf[cfgfact] = %T, want *cfg.PackageCFGs", seen[0])
	}
	if seen[0] != seen[1] {
		t.Errorf("dependents got distinct fact results %p and %p; the fact must run once per package", seen[0], seen[1])
	}
}
