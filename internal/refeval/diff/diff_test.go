package diff_test

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"qof/internal/algebra"
	"qof/internal/db"
	"qof/internal/qgen"
	"qof/internal/refeval/diff"
	"qof/internal/region"
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
// the production evaluator (the sweep's and the layered ⊃d) and the naive
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
			outside := 0
			for hi, h := range hs {
				gen := qgen.ExprGenFor(d, h.In.Names(), exprSeed+int64(hi))
				for i := 0; i < exprsPerHarness; i++ {
					e := gen.Expr()
					if err := h.CheckExpr(e); err != nil {
						t.Fatalf("spec %d expr %d: %v", hi, i, err)
					}
					outside += outsideContainers(h, e)
				}
			}
			t.Logf("%d ⊃d/⊂d nodes with a container outside every named set", outside)
			// Guard against a workload that never reaches the containers no
			// named set holds, which never block: a sweep that let them
			// block would agree on every expression but these.
			if min := len(hs) * exprsPerHarness / 20; outside < min {
				t.Errorf("only %d ⊃d/⊂d nodes had a direct pair with a container outside every named set, want ≥ %d",
					outside, min)
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

// outsideContainers counts the ⊃d and ⊂d nodes of e of which some direct
// pair, by the oracle, has a container that no named set of h's instance
// holds — a word, prefix or match point.
func outsideContainers(h *diff.Harness, e algebra.Expr) int {
	n := 0
	algebra.Walk(e, func(x algebra.Expr) {
		b, ok := x.(algebra.Binary)
		if !ok || b.Op != algebra.OpDirIncluding && b.Op != algebra.OpDirIncluded {
			return
		}
		if b.Op == algebra.OpDirIncluded { // L ⊂d R pairs as R ⊃d L does
			b.L, b.R = b.R, b.L
		}
		b.Op = algebra.OpDirIncluding
		containers, err := h.Ref.Eval(b)
		if err != nil {
			return
		}
		for _, r := range containers.Regions() {
			if !slices.ContainsFunc(h.In.Sets(), func(s region.Set) bool { return s.Contains(r) }) {
				n++
				return
			}
		}
	})
	return n
}

// TestEverySpecLoads: the index of every domain under every specification
// saves and loads again through Grammar.LoadInstance, whose Definition 3.1
// check every instance a grammar builds must pass.
func TestEverySpecLoads(t *testing.T) {
	for _, d := range qgen.Domains(corpusSeed) {
		hs, err := diff.Harnesses(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hs {
			var buf bytes.Buffer
			if err := h.In.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if _, err := d.Cat.Grammar.LoadInstance(&buf, d.Doc); err != nil {
				t.Errorf("%s: %v", h.Name, err)
			}
		}
	}
}
