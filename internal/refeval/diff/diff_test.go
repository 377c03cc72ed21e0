package diff_test

import (
	"strings"
	"testing"

	"qof/internal/db"
	"qof/internal/qgen"
	"qof/internal/refeval/diff"
	"qof/internal/sgml"
	"qof/internal/xsql"
)

// Fixed seeds: a failure reproduces from the seed and query index alone.
const (
	corpusSeed = 1994
	querySeed  = 317
	exprSeed   = 631
)

// queriesPerDomain is the differential workload size per domain (the
// acceptance floor is 500).
const queriesPerDomain = 600

// exprsPerHarness sizes the algebra-level sweep per (domain, spec) pair.
const exprsPerHarness = 150

// TestDifferentialQueries runs the randomly generated query workload through
// the full engine (optimized, plan-cached, parallel phase 2) and the naive
// oracle across every index specification of every domain.
func TestDifferentialQueries(t *testing.T) {
	for _, d := range qgen.Domains(corpusSeed) {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			t.Parallel()
			hs, err := diff.Harnesses(d)
			if err != nil {
				t.Fatal(err)
			}
			gen := qgen.NewQueryGen(d, querySeed)
			nonEmpty := 0
			for i := 0; i < queriesPerDomain; i++ {
				q := gen.Query()
				h := hs[i%len(hs)]
				if err := h.CheckQuery(q); err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
				if res, err := h.Oracle.Query(q); err == nil &&
					(len(res.Objects) > 0 || len(res.Strings) > 0) {
					nonEmpty++
				}
			}
			// Guard against a vacuous workload: agreement on empty results
			// only would prove nothing.
			if min := queriesPerDomain / 10; nonEmpty < min {
				t.Errorf("only %d/%d queries had non-empty answers, want ≥ %d",
					nonEmpty, queriesPerDomain, min)
			}
		})
	}
}

// TestDifferentialExprs runs randomly generated algebra expressions through
// the production evaluator (universe-based and layered ⊃d) and the naive
// reference evaluator on every index specification.
func TestDifferentialExprs(t *testing.T) {
	for _, d := range qgen.Domains(corpusSeed) {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			t.Parallel()
			hs, err := diff.Harnesses(d)
			if err != nil {
				t.Fatal(err)
			}
			for hi, h := range hs {
				gen := qgen.ExprGenFor(d, h.In.Names(), exprSeed+int64(hi))
				for i := 0; i < exprsPerHarness; i++ {
					e := gen.Expr()
					if err := h.CheckExpr(e); err != nil {
						t.Fatalf("spec %d expr %d: %v", hi, i, err)
					}
				}
			}
		})
	}
}

// TestWideReadSetWidensToEverything: a chain of ?X steps over sgml's
// recursive Section names three attributes per step, so past 85 steps its
// read trie passes the compiler's 256-node bound and the read set widens to
// the whole value. Explain says so, and on every index specification the
// answers are the oracle's — with Section, which is not flat, parsed by the
// general runner at every level.
func TestWideReadSetWidensToEverything(t *testing.T) {
	d := qgen.SGML(corpusSeed)
	chain := func(steps int) string { return "s." + strings.Repeat("?X.", steps) + sgml.NTTitle }
	for steps, wide := range map[int]bool{80: false, 90: true} {
		q := xsql.MustParse(`SELECT s FROM Sections s WHERE ` + chain(steps) + ` CONTAINS "needle"`)
		reads, err := d.Cat.Grammar.CompileReads(sgml.NTSection, [][]db.Step{xsql.CondPaths(q.Where)[0].Steps()})
		if err != nil {
			t.Fatal(err)
		}
		if reads.Everything() != wide {
			t.Errorf("%d ?X steps: read set %q, want widened %v", steps, reads, wide)
		}
	}
	// The short path gives the query answers to disagree on.
	q := xsql.MustParse(`SELECT s FROM Sections s WHERE ` + chain(90) + ` CONTAINS "needle" OR s.Para CONTAINS "needle"`)
	hs, err := diff.Harnesses(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hs {
		if err := h.CheckQuery(q); err != nil {
			t.Fatal(err)
		}
		res, err := h.Eng.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if explain := res.Plan.Explain(); !strings.Contains(explain, "phase 2 reads: everything\n") {
			t.Errorf("%s: Explain does not say the read set widened:\n%s", h.Name, explain)
		}
		if res.Regions.Len() == 0 {
			t.Errorf("%s: no answers; the comparison is vacuous", h.Name)
		}
	}
}
