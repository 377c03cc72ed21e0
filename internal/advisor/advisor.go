// Package advisor implements Section 7 of the paper: choosing what to
// index. Given a structuring schema and a query workload, it computes a
// region-index choice sufficient to fully compute every query with the
// indexing engine:
//
//   - the non-terminals explicitly mentioned by each query's optimized
//     inclusion expression must be indexed, and
//   - for every remaining ⊃d subexpression Ai ⊃d Aj, one non-terminal
//     (other than Ai, Aj) on each RIG path from Ai to Aj must be indexed,
//     so that non-direct inclusions can be ruled out — per the paper, one
//     per path suffices.
//
// The advisor additionally suggests selective (region-scoped) indexing when
// the workload only ever reaches a name through a single parent (the
// paper's "index only last names of authors" guideline), and verifies its
// recommendation by recompiling the workload against it.
package advisor

import (
	"fmt"
	"sort"
	"strings"

	"qof/internal/compile"
	"qof/internal/grammar"
	"qof/internal/index"
	"qof/internal/optimizer"
	"qof/internal/region"
	"qof/internal/rig"
	"qof/internal/text"
	"qof/internal/xsql"
)

// QueryNeed records why names were selected for one query.
type QueryNeed struct {
	Query    string
	Explicit []string   // names in the optimized full-index expression
	Hitting  [][]string // per remaining ⊃d pair: the separator names chosen
	Exact    bool       // verification: the plan over the recommendation is exact
}

// Recommendation is the advisor's output.
type Recommendation struct {
	// Names is the recommended global region-index set.
	Names []string
	// Scoped lists optional selective-indexing refinements: names that
	// the workload only reaches through a single parent. Applying them
	// saves further space but (in this implementation) trades away the
	// exactness classification, so they are reported separately rather
	// than folded into Names.
	Scoped []grammar.ScopedName
	// PerQuery explains the choice.
	PerQuery []QueryNeed
	// FullCount is the number of names full indexing would use, for
	// savings reports.
	FullCount int
}

// Spec converts the recommendation into an index specification (globals
// only; see Scoped for the optional refinements).
func (r *Recommendation) Spec() grammar.IndexSpec {
	return grammar.IndexSpec{Names: append([]string(nil), r.Names...)}
}

func (r *Recommendation) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "recommended indexes (%d of %d): %s\n",
		len(r.Names), r.FullCount, strings.Join(r.Names, ", "))
	for _, sc := range r.Scoped {
		fmt.Fprintf(&sb, "selective option: index %s only within %s\n", sc.Name, sc.Within)
	}
	for _, q := range r.PerQuery {
		fmt.Fprintf(&sb, "query %s: explicit %v", q.Query, q.Explicit)
		for _, h := range q.Hitting {
			fmt.Fprintf(&sb, ", separators %v", h)
		}
		fmt.Fprintf(&sb, " (exact=%v)\n", q.Exact)
	}
	return sb.String()
}

// Recommend computes an index recommendation for the workload.
func Recommend(cat *compile.Catalog, queries []*xsql.Query) (*Recommendation, error) {
	rec := &Recommendation{FullCount: len(cat.Grammar.FullIndexSpec().Names)}
	chosen := make(map[string]bool)
	parents := make(map[string]map[string]bool) // leaf -> set of direct parents used

	fullRIG := cat.RIG
	for _, q := range queries {
		need := QueryNeed{Query: q.String()}
		paths, err := workloadPaths(cat, q)
		if err != nil {
			return nil, err
		}
		for _, full := range paths {
			explicit, hitting := analyzePath(fullRIG, full)
			for _, n := range explicit {
				if !chosen[n] {
					chosen[n] = true
				}
			}
			need.Explicit = mergeUnique(need.Explicit, explicit)
			for _, h := range hitting {
				for _, n := range h {
					chosen[n] = true
				}
				need.Hitting = append(need.Hitting, h)
			}
			recordParent(parents, full)
		}
		rec.PerQuery = append(rec.PerQuery, need)
	}

	rec.Names = make([]string, 0, len(chosen))
	for n := range chosen {
		rec.Names = append(rec.Names, n)
	}
	sort.Strings(rec.Names)

	// Selective suggestions: a chosen name whose workload occurrences all
	// sit under one concrete parent.
	for leaf, ps := range parents {
		if !chosen[leaf] || len(ps) != 1 {
			continue
		}
		for p := range ps {
			if p != "*" && p != leaf {
				rec.Scoped = append(rec.Scoped, grammar.ScopedName{Name: leaf, Within: p})
			}
		}
	}
	sort.Slice(rec.Scoped, func(i, j int) bool { return rec.Scoped[i].Name < rec.Scoped[j].Name })

	// Verification: compile the workload against the recommendation and
	// record exactness. The verification instance only needs the indexed
	// name set, not real regions.
	verifyIn := emptyInstance(rec.Names)
	for i, q := range queries {
		plan, err := cat.Compile(q, verifyIn)
		if err != nil {
			return nil, err
		}
		exact := !plan.Trivial
		for _, vp := range plan.Vars {
			if !vp.Exact {
				exact = false
			}
		}
		rec.PerQuery[i].Exact = exact
	}
	return rec, nil
}

// workloadPaths extracts every concrete full path the query touches:
// comparison paths, join sides and the projection.
func workloadPaths(cat *compile.Catalog, q *xsql.Query) ([][]string, error) {
	var out [][]string
	addPath := func(p xsql.Path) error {
		nt, ok := cat.ClassNT(classOf(q, p.Var))
		if !ok {
			return fmt.Errorf("advisor: class for variable %q is not bound", p.Var)
		}
		paths, _ := cat.ResolvePaths(nt, p.Segs)
		out = append(out, paths...)
		return nil
	}
	for _, p := range xsql.CondPaths(q.Where) {
		if err := addPath(p); err != nil {
			return nil, err
		}
	}
	if len(q.Select.Segs) > 0 {
		if err := addPath(q.Select); err != nil {
			return nil, err
		}
	}
	if len(out) == 0 {
		// No paths: the query still needs the class regions themselves.
		nt, ok := cat.ClassNT(classOf(q, q.Select.Var))
		if !ok {
			return nil, fmt.Errorf("advisor: class for variable %q is not bound", q.Select.Var)
		}
		out = append(out, []string{nt})
	}
	return out, nil
}

func classOf(q *xsql.Query, v string) string {
	cls, _ := q.ClassOf(v)
	return cls
}

// analyzePath simulates full indexing for one concrete path: build the
// all-⊃d chain, optimize it against the full RIG, and return the explicit
// names plus, per surviving ⊃d pair, the chosen separator names (one per
// RIG path, per the paper's rule).
func analyzePath(g *rig.Graph, full []string) (explicit []string, hitting [][]string) {
	names, direct := chainFromFull(full)
	if len(names) == 1 {
		return names, nil
	}
	ch, err := optimizer.NewChain(names, direct, nil, false)
	if err != nil {
		return names, nil
	}
	opt, _ := optimizer.Optimize(ch, g)
	explicit = append([]string(nil), opt.Names...)
	for i := range opt.Direct {
		if !opt.Direct[i] {
			continue
		}
		seps := separators(g, opt.Names[i], opt.Names[i+1])
		if len(seps) > 0 {
			hitting = append(hitting, seps)
		}
	}
	return explicit, hitting
}

// chainFromFull converts a full path (with "*" gaps) to chain form.
func chainFromFull(full []string) (names []string, direct []bool) {
	gap := false
	for _, n := range full {
		if n == "*" {
			gap = true
			continue
		}
		if len(names) > 0 {
			direct = append(direct, !gap)
		}
		names = append(names, n)
		gap = false
	}
	return names, direct
}

// separators returns a small set of names hitting every RIG path from a to
// b (interior nodes only): greedy set cover over the simple paths.
func separators(g *rig.Graph, a, b string) []string {
	paths := simplePaths(g, a, b, 256)
	// Paths that are bare edges need no separator and cannot have one;
	// they are excluded (the ⊃d then relies on the edge relation itself).
	var interiors [][]string
	for _, p := range paths {
		if len(p) > 2 {
			interiors = append(interiors, p[1:len(p)-1])
		}
	}
	var out []string
	covered := make([]bool, len(interiors))
	for {
		remaining := 0
		counts := make(map[string]int)
		for i, in := range interiors {
			if covered[i] {
				continue
			}
			remaining++
			for _, n := range in {
				counts[n]++
			}
		}
		if remaining == 0 {
			return out
		}
		best, bestC := "", 0
		for n, c := range counts {
			if c > bestC || (c == bestC && n < best) {
				best, bestC = n, c
			}
		}
		out = append(out, best)
		for i, in := range interiors {
			if covered[i] {
				continue
			}
			for _, n := range in {
				if n == best {
					covered[i] = true
					break
				}
			}
		}
	}
}

// simplePaths enumerates simple paths from a to b, capped.
func simplePaths(g *rig.Graph, a, b string, cap int) [][]string {
	var out [][]string
	onPath := map[string]bool{a: true}
	var cur []string
	var dfs func(n string)
	dfs = func(n string) {
		if len(out) >= cap {
			return
		}
		for _, s := range g.Successors(n) {
			if s == b {
				p := append([]string{a}, cur...)
				out = append(out, append(p, b))
				if len(out) >= cap {
					return
				}
			}
			if !onPath[s] && s != b {
				onPath[s] = true
				cur = append(cur, s)
				dfs(s)
				cur = cur[:len(cur)-1]
				onPath[s] = false
			}
		}
	}
	dfs(a)
	return out
}

func mergeUnique(dst []string, src []string) []string {
	seen := make(map[string]bool, len(dst))
	for _, n := range dst {
		seen[n] = true
	}
	for _, n := range src {
		if !seen[n] {
			seen[n] = true
			dst = append(dst, n)
		}
	}
	return dst
}

// recordParent tracks, for each path leaf, the concrete name immediately
// before it in the full path (or "*" when a star precedes).
func recordParent(parents map[string]map[string]bool, full []string) {
	if len(full) < 2 {
		return
	}
	leaf := full[len(full)-1]
	if leaf == "*" {
		return
	}
	parent := full[len(full)-2]
	if parents[leaf] == nil {
		parents[leaf] = make(map[string]bool)
	}
	parents[leaf][parent] = true
}

// emptyInstance builds an instance over an empty document indexing the
// given names, used only so that compilation sees the indexing choice.
func emptyInstance(names []string) *index.Instance {
	sets := make(map[string]region.Set, len(names))
	for _, n := range names {
		sets[n] = region.Empty
	}
	return index.New(index.NewWordIndex(text.NewDocument("advisor-verify", "")), sets, nil)
}
