// Package diff wires the full engine and the refeval oracle into a
// differential-testing harness: every generated query runs through both and
// any disagreement fails with a report that names the query, the plan and
// both results. The engine side deliberately exercises its whole machinery —
// optimized plans, the plan cache (every query executes repeatedly), and
// phase 2 both inline and on helpers — while the oracle side uses none of it.
package diff

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"qof/internal/algebra"
	"qof/internal/engine"
	"qof/internal/grammar"
	"qof/internal/index"
	"qof/internal/pool"
	"qof/internal/qgen"
	"qof/internal/refeval"
	"qof/internal/region"
	"qof/internal/xsql"
)

// Harness runs queries through the engine and the oracle, and expressions
// through both production evaluators and the naive reference evaluator.
type Harness struct {
	Name   string // e.g. "bibtex/spec1", for reports
	In     *index.Instance
	Eng    *engine.Engine
	Oracle *refeval.Oracle
	Ref    *refeval.Evaluator
}

// limitLegKs are the LIMIT values the prefix leg re-runs every query with.
var limitLegKs = []int{1, 3}

// helperCounts are the helper budgets (package pool) every query runs
// under: the inline drain and the chunked one.
var helperCounts = []int{0, 3}

// helpersMu serializes the checks, which pin the process's helper budget,
// across harnesses in parallel tests.
var helpersMu sync.Mutex

// New builds a harness for one domain under one index specification.
func New(d *qgen.Domain, specIdx int, spec grammar.IndexSpec) (*Harness, error) {
	in, _, err := d.Cat.Grammar.BuildInstance(d.Doc, spec)
	if err != nil {
		return nil, fmt.Errorf("diff: building instance for %s/spec%d: %w", d.Name, specIdx, err)
	}
	oracle, err := refeval.NewOracle(d.Cat, d.Doc)
	if err != nil {
		return nil, err
	}
	return &Harness{
		Name:   fmt.Sprintf("%s/spec%d", d.Name, specIdx),
		In:     in,
		Eng:    engine.New(d.Cat, in),
		Oracle: oracle,
		Ref:    refeval.New(in),
	}, nil
}

// Harnesses builds one harness per index specification of the domain.
func Harnesses(d *qgen.Domain) ([]*Harness, error) {
	out := make([]*Harness, 0, len(d.Specs))
	for i, spec := range d.Specs {
		h, err := New(d, i, spec)
		if err != nil {
			return nil, err
		}
		out = append(out, h)
	}
	return out, nil
}

// CheckQuery executes q on the engine three times under each of the
// helper budgets — every run after the first must come from the plan
// cache, and by the third the cross-query result cache is warm, so both
// cache layers are under differential test — and on the oracle, and
// returns a mismatch report as an error, or nil when all runs agree. The
// last runs under each budget must agree on every repeatable statistic.
// When the query succeeds, the LIMIT leg re-runs it with LIMIT k under
// each budget and checks the limited answer against the full one.
func (h *Harness) CheckQuery(q *xsql.Query) error {
	want, oerr := h.Oracle.Query(q)
	helpersMu.Lock()
	defer helpersMu.Unlock()
	defer pool.SetHelpers(helperCounts[0])() // restores the budget the sweeps below replace
	full := make([]*engine.Result, len(helperCounts))
	for pi, par := range helperCounts {
		pool.SetHelpers(par)
		for run := 0; run < 3; run++ {
			got, err := h.Eng.Execute(q)
			if (err != nil) != (oerr != nil) {
				return fmt.Errorf("%s: error disagreement on %s (%d helpers, run %d):\n  engine: %v\n  oracle: %v",
					h.Name, q, par, run, err, oerr)
			}
			if err != nil {
				continue // both sides reject the query the same way
			}
			if (pi > 0 || run >= 1) && !got.Stats.PlanCached {
				return fmt.Errorf("%s: run %d of %s with %d helpers did not hit the plan cache", h.Name, run, q, par)
			}
			if msg := h.compare(q, got, want); msg != "" {
				return fmt.Errorf("%s: mismatch on %s (%d helpers, run %d):\n%s\nplan:\n%s",
					h.Name, q, par, run, msg, indent(got.Plan.Explain()))
			}
			full[pi] = got
		}
	}
	if oerr != nil || full[0] == nil {
		return nil
	}
	for pi := 1; pi < len(full); pi++ {
		if a, b := repeatable(full[0].Stats), repeatable(full[pi].Stats); a != b {
			return fmt.Errorf("%s: statistics of %s differ with %d and %d helpers:\n  %+v\n  %+v",
				h.Name, q, helperCounts[0], helperCounts[pi], a, b)
		}
	}
	for _, k := range limitLegKs {
		var seq engine.Stats
		for pi, par := range helperCounts {
			pool.SetHelpers(par)
			limited, err := h.checkLimit(q, k, full[0])
			if err != nil {
				return err
			}
			st := repeatable(limited.Stats)
			if pi == 0 {
				seq = st
				continue
			}
			// Helpers may have cut candidates past the stop point: that shows
			// in Candidates and in the buffer bytes counted for them, and
			// nowhere else.
			if st.Candidates < seq.Candidates || st.PeakBytes < seq.PeakBytes {
				return fmt.Errorf("%s: LIMIT %d on %s with %d helpers read less than sequentially:\n  %+v\n  %+v",
					h.Name, k, q, par, seq, st)
			}
			st.Candidates, st.PeakBytes = seq.Candidates, seq.PeakBytes
			if st != seq {
				return fmt.Errorf("%s: LIMIT %d on %s: statistics differ with %d and %d helpers:\n  %+v\n  %+v",
					h.Name, k, q, helperCounts[0], par, seq, st)
			}
		}
	}
	return nil
}

// repeatable is st without what differs between two runs of one plan:
// whether the plan was compiled or already cached.
func repeatable(st engine.Stats) engine.Stats {
	st.PlanCached = false
	return st
}

// checkLimit runs q with LIMIT k and verifies the LIMIT invariants against
// full, the oracle-checked unlimited answer: the limited regions are a
// document-order prefix of the full sorted answer, the row count is
// min(k, full), and the projected strings are a prefix of the full strings
// (every query, joins included, emits in document order). It returns the
// limited result.
func (h *Harness) checkLimit(q *xsql.Query, k int, full *engine.Result) (*engine.Result, error) {
	limited, err := h.Eng.Execute(q.WithLimit(k))
	if err != nil {
		return nil, fmt.Errorf("%s: LIMIT %d on %s failed: %v", h.Name, k, q, err)
	}
	if limited.Projected != full.Projected {
		return nil, fmt.Errorf("%s: LIMIT %d on %s: projected %v, full answer %v",
			h.Name, k, q, limited.Projected, full.Projected)
	}
	// Row count: exactly k rows unless the full answer is smaller.
	rows, fullRows := limited.Stats.Results, full.Stats.Results
	if wantRows := min(k, fullRows); rows != wantRows {
		return nil, fmt.Errorf("%s: LIMIT %d on %s returned %d rows, want %d (full %d)",
			h.Name, k, q, rows, wantRows, fullRows)
	}
	// Regions: a prefix of the full sorted answer.
	lr, fr := limited.Regions.Regions(), full.Regions.Regions()
	if len(lr) > len(fr) {
		return nil, fmt.Errorf("%s: LIMIT %d on %s kept %d regions, full answer has %d",
			h.Name, k, q, len(lr), len(fr))
	}
	for i := range lr {
		if lr[i] != fr[i] {
			return nil, fmt.Errorf("%s: LIMIT %d on %s: region %d is %v, full answer has %v — not a prefix",
				h.Name, k, q, i, lr[i], fr[i])
		}
	}
	if limited.Projected {
		for i, s := range limited.Strings {
			if i >= len(full.Strings) || s != full.Strings[i] {
				return nil, fmt.Errorf("%s: LIMIT %d on %s: strings are not a prefix of the full answer:\n  limited %v\n  full    %v",
					h.Name, k, q, limited.Strings, full.Strings)
			}
		}
	}
	return limited, nil
}

// compare checks the engine result against the oracle result. Regions are
// compared as sets; projected strings and selected objects as multisets,
// since the engine's output order is document order while the oracle's is
// nested-loop order.
func (h *Harness) compare(q *xsql.Query, got *engine.Result, want *refeval.QueryResult) string {
	if got.Projected != want.Projected {
		return fmt.Sprintf("  projected: engine %v, oracle %v", got.Projected, want.Projected)
	}
	if got.Projected {
		if msg := compareMultiset("strings", got.Strings, want.Strings); msg != "" {
			return msg
		}
		return ""
	}
	if !got.Regions.Equal(want.Regions) {
		return fmt.Sprintf("  regions: engine %v\n           oracle %v\n           engine-only %v, oracle-only %v",
			got.Regions, want.Regions,
			setMinus(got.Regions, want.Regions), setMinus(want.Regions, got.Regions))
	}
	objs, err := got.Objects()
	if err != nil {
		return fmt.Sprintf("  objects: %v", err)
	}
	gs := make([]string, len(objs))
	for i, o := range objs {
		gs[i] = o.String()
	}
	ws := make([]string, len(want.Objects))
	for i, o := range want.Objects {
		ws[i] = o.String()
	}
	return compareMultiset("objects", gs, ws)
}

// CheckExpr evaluates e with both production evaluators — the set evaluator
// the complete-set plans run on and the stream pipeline every other plan
// runs on, each in its sweep and layered ⊃d configurations — and
// with the naive reference evaluator, and reports any disagreement. Errors
// must agree too (all sides reject unindexed names).
func (h *Harness) CheckExpr(e algebra.Expr) error {
	want, werr := h.Ref.Eval(e)
	for _, layered := range []bool{false, true} {
		for _, mode := range []string{"set", "stream"} {
			ev := algebra.NewEvaluator(h.In)
			ev.UseLayeredDirect = layered
			var got region.Set
			var err error
			if mode == "stream" {
				got, err = ev.StreamEval(context.Background(), e, nil, nil)
			} else {
				got, err = ev.Eval(e)
			}
			if (err != nil) != (werr != nil) {
				return fmt.Errorf("%s: error disagreement on %s (%s, layered=%v):\n  engine: %v\n  refeval: %v",
					h.Name, e, mode, layered, err, werr)
			}
			if err != nil {
				continue
			}
			if !got.Equal(want) {
				return fmt.Errorf("%s: mismatch on %s (%s, layered=%v):\n  engine:  %v\n  refeval: %v\n  engine-only %v, refeval-only %v",
					h.Name, e, mode, layered, got, want, setMinus(got, want), setMinus(want, got))
			}
		}
	}
	return nil
}

// compareMultiset compares two string slices up to order.
func compareMultiset(what string, got, want []string) string {
	g := append([]string(nil), got...)
	w := append([]string(nil), want...)
	sort.Strings(g)
	sort.Strings(w)
	if len(g) == len(w) {
		same := true
		for i := range g {
			if g[i] != w[i] {
				same = false
				break
			}
		}
		if same {
			return ""
		}
	}
	return fmt.Sprintf("  %s: engine %d %v\n  %s  oracle %d %v",
		what, len(got), g, strings.Repeat(" ", len(what)), len(want), w)
}

func setMinus(a, b region.Set) region.Set {
	return a.Filter(func(r region.Region) bool { return !b.Contains(r) })
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n  ")
}
