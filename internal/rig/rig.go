// Package rig implements the Region Inclusion Graph of Section 3.2 of the
// paper: a directed graph over region names whose edges state which direct
// inclusions between region instances are possible. The RIG plays the role
// of a schema for region expressions — two expressions are equivalent with
// respect to a RIG when they agree on every instance satisfying it
// (Definition 3.2) — and supplies the path analyses behind the optimization
// algorithm (Propositions 3.3 and 3.5), the projection onto a partially
// indexed subset of names (Section 6.1), and the exactness condition for
// partial indexing (Section 6.3).
package rig

import (
	"fmt"
	"sort"
	"strings"

	"qof/internal/index"
)

// Graph is a region inclusion graph. Nodes are region names; an edge
// (A, B) states that an A region may directly include a B region. Graphs
// may contain cycles (self-nested regions) and self-loops.
type Graph struct {
	nodes []string
	idx   map[string]int
	succ  [][]int
	pred  [][]int
}

// New creates a graph with the given nodes and no edges.
func New(nodes ...string) *Graph {
	g := &Graph{idx: make(map[string]int, len(nodes))}
	for _, n := range nodes {
		g.ensure(n)
	}
	return g
}

func (g *Graph) ensure(n string) int {
	if i, ok := g.idx[n]; ok {
		return i
	}
	i := len(g.nodes)
	g.nodes = append(g.nodes, n)
	g.idx[n] = i
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	return i
}

// AddEdge adds the edge (from, to), creating missing nodes. Adding an edge
// twice is a no-op.
func (g *Graph) AddEdge(from, to string) {
	f, t := g.ensure(from), g.ensure(to)
	for _, s := range g.succ[f] {
		if s == t {
			return
		}
	}
	g.succ[f] = append(g.succ[f], t)
	g.pred[t] = append(g.pred[t], f)
}

// HasNode reports whether the name is a node of the graph.
func (g *Graph) HasNode(n string) bool {
	_, ok := g.idx[n]
	return ok
}

// HasEdge reports whether the edge (from, to) exists.
func (g *Graph) HasEdge(from, to string) bool {
	f, ok := g.idx[from]
	if !ok {
		return false
	}
	t, ok := g.idx[to]
	if !ok {
		return false
	}
	for _, s := range g.succ[f] {
		if s == t {
			return true
		}
	}
	return false
}

// Nodes returns the node names in insertion order.
func (g *Graph) Nodes() []string {
	out := make([]string, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// Successors returns the names reachable from n by one edge, sorted.
func (g *Graph) Successors(n string) []string {
	i, ok := g.idx[n]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(g.succ[i]))
	for _, s := range g.succ[i] {
		out = append(out, g.nodes[s])
	}
	sort.Strings(out)
	return out
}

// EdgeCount reports the number of edges.
func (g *Graph) EdgeCount() int {
	n := 0
	for _, s := range g.succ {
		n += len(s)
	}
	return n
}

// String renders the graph as sorted "A -> B" lines, for goldens and debug.
func (g *Graph) String() string {
	var lines []string
	for f, ss := range g.succ {
		for _, t := range ss {
			lines = append(lines, g.nodes[f]+" -> "+g.nodes[t])
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// reaches reports whether to is reachable from from by a non-empty walk.
func (g *Graph) reaches(from, to int) bool {
	seen := make([]bool, len(g.nodes))
	stack := append([]int(nil), g.succ[from]...)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v == to {
			return true
		}
		if seen[v] {
			continue
		}
		seen[v] = true
		stack = append(stack, g.succ[v]...)
	}
	return false
}

// HasPath reports whether a non-empty path from one name to another exists.
// It is the test behind Proposition 3.3(ii): a subexpression Ri ⊃ Rj is
// trivially empty when no path from Ri to Rj exists.
func (g *Graph) HasPath(from, to string) bool {
	f, ok := g.idx[from]
	if !ok {
		return false
	}
	t, ok := g.idx[to]
	if !ok {
		return false
	}
	return g.reaches(f, t)
}

// OnlyPathIsEdge reports whether the edge (from, to) exists and is the only
// path from from to to — the first applicability condition of
// Proposition 3.5(a) for replacing ⊃d by ⊃.
func (g *Graph) OnlyPathIsEdge(from, to string) bool {
	if !g.HasEdge(from, to) {
		return false
	}
	f, t := g.idx[from], g.idx[to]
	for _, k := range g.succ[f] {
		if k != t && g.reaches(k, t) {
			return false // a path avoiding the edge's head exists
		}
		if k == t && g.reaches(t, t) {
			return false // the edge can be extended around a cycle at to
		}
	}
	// A longer path could also leave from again through a cycle back to
	// from; that is covered above because its second node is some k.
	return true
}

// AllPathsStartWithEdge reports whether the edge (from, to) exists and every
// path from from to to begins with it — the second applicability condition
// of Proposition 3.5(a), usable when to is the rightmost region of the
// expression.
func (g *Graph) AllPathsStartWithEdge(from, to string) bool {
	if !g.HasEdge(from, to) {
		return false
	}
	f, t := g.idx[from], g.idx[to]
	for _, k := range g.succ[f] {
		if k != t && g.reaches(k, t) {
			return false
		}
	}
	return true
}

// AllPathsEndWithEdge reports whether the edge (from, to) exists and every
// path from from to to ends with it — the mirror of AllPathsStartWithEdge
// used when optimizing ⊂d in projection chains, where evaluation travels
// from the contained region upward (Section 5.2).
func (g *Graph) AllPathsEndWithEdge(from, to string) bool {
	if !g.HasEdge(from, to) {
		return false
	}
	f, t := g.idx[from], g.idx[to]
	for _, k := range g.pred[t] {
		if k != f && g.reaches(f, k) {
			return false // a path arriving at to through k ≠ from exists
		}
	}
	return true
}

// AllPathsThrough reports whether every path from from to to passes through
// via as an interior node — the applicability condition of Proposition
// 3.5(b) for shortening Ri ⊃ Rj ⊃ Rk to Ri ⊃ Rk. Occurrences of via as the
// path's first or last node do not count: the rule's witness must be a
// region strictly between the outer and inner regions, so self-nested
// region names (via equal to from or to) need an interior visit.
func (g *Graph) AllPathsThrough(from, via, to string) bool {
	f, ok := g.idx[from]
	if !ok {
		return false
	}
	t, ok := g.idx[to]
	if !ok {
		return false
	}
	v, ok := g.idx[via]
	if !ok {
		// via is not even a node: every path trivially avoids it, so
		// the condition holds only if no path exists at all.
		return !g.reaches(f, t)
	}
	// Every path passes through via iff deleting via disconnects from→to.
	seen := make([]bool, len(g.nodes))
	seen[v] = true
	stack := []int{}
	for _, k := range g.succ[f] {
		if k == t {
			return false // an edge from→to avoids via
		}
		if !seen[k] {
			stack = append(stack, k)
		}
	}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[x] {
			continue
		}
		seen[x] = true
		for _, k := range g.succ[x] {
			if k == t {
				return false
			}
			if !seen[k] {
				stack = append(stack, k)
			}
		}
	}
	return true
}

// IsPath reports whether the sequence of names follows edges of the graph.
// Query path expressions over natural structuring schemas match such paths
// (Section 5.1).
func (g *Graph) IsPath(names ...string) bool {
	if len(names) == 0 {
		return false
	}
	if !g.HasNode(names[0]) {
		return false
	}
	for i := 0; i+1 < len(names); i++ {
		if !g.HasEdge(names[i], names[i+1]) {
			return false
		}
	}
	return true
}

// Satisfies checks Definition 3.1: the instance satisfies the graph iff
// whenever a region of name A directly includes a region of name B — B's
// region is strictly inside A's with no other indexed region in between —
// the edge (A, B) is present. It evaluates A ⊃d B over the instance's
// universe for each ordered pair of names with no edge, and returns nil
// when every answer is empty, else an error naming the first violation.
func (g *Graph) Satisfies(in *index.Instance) error {
	u := in.Universe()
	names := in.Names()
	for _, a := range names {
		for _, b := range names {
			if g.HasEdge(a, b) {
				continue
			}
			if p := u.DirectlyIncluding(in.MustRegion(a), in.MustRegion(b)); !p.IsEmpty() {
				return fmt.Errorf("rig: instance violates graph: %s region %v directly includes a %s region but edge (%s, %s) is absent",
					a, p.At(0), b, a, b)
			}
		}
	}
	return nil
}

// Project computes the RIG of a partially indexed subset of the nodes
// (Section 6.1): the projected graph has the indexed names as nodes and an
// edge (A, B) iff the full graph has a path from A to B whose intermediate
// nodes are all unindexed.
func (g *Graph) Project(indexed ...string) *Graph {
	return g.ProjectTransparent(indexed, indexed)
}

// ProjectTransparent generalizes Project for selectively indexed names: the
// projected graph has the keep names as nodes and an edge (A, B) iff the
// full graph has a path from A to B whose intermediate nodes avoid opaque.
// A selectively indexed region name is kept as a node but excluded from
// opaque — its regions may be missing on some path realizations, so it
// cannot be relied on to sit between two other regions.
func (g *Graph) ProjectTransparent(keepNames, opaque []string) *Graph {
	keep := make(map[string]bool, len(keepNames))
	for _, n := range keepNames {
		if g.HasNode(n) {
			keep[n] = true
		}
	}
	block := make(map[string]bool, len(opaque))
	for _, n := range opaque {
		block[n] = true
	}
	p := New()
	for _, n := range g.nodes {
		if keep[n] {
			p.ensure(n)
		}
	}
	for _, n := range g.nodes {
		if !keep[n] {
			continue
		}
		f := g.idx[n]
		// DFS from n travelling only through non-opaque nodes,
		// recording the kept nodes reached.
		seen := make([]bool, len(g.nodes))
		stack := append([]int(nil), g.succ[f]...)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[v] {
				continue
			}
			seen[v] = true
			name := g.nodes[v]
			if keep[name] {
				p.AddEdge(n, name)
			}
			if !block[name] {
				stack = append(stack, g.succ[v]...)
			}
		}
	}
	return p
}

// PathCount classifies how many full-graph paths realize a projected edge.
type PathCount int

// Path multiplicities for UniquePath.
const (
	NoPath        PathCount = iota // no realizing path
	UniquePath                     // exactly one
	MultiplePaths                  // two or more (possibly infinitely many)
)

// CountRealizingPaths reports how many paths from from to to exist in the
// full graph with all intermediate nodes outside indexed. This is the test
// of Section 6.3: an inclusion expression over a partial index computes the
// exact answer iff every edge on the matched path is realized by a unique
// full-graph path; with multiple realizations it computes a superset.
func (g *Graph) CountRealizingPaths(from, to string, indexed map[string]bool) PathCount {
	f, ok := g.idx[from]
	if !ok {
		return NoPath
	}
	t, ok := g.idx[to]
	if !ok {
		return NoPath
	}
	// Build the set of permitted intermediate nodes.
	mid := make([]bool, len(g.nodes))
	for i, n := range g.nodes {
		mid[i] = !indexed[n]
	}
	// relevantFrom: nodes reachable from f via permitted intermediates.
	reachFwd := make([]bool, len(g.nodes))
	var stack []int
	for _, k := range g.succ[f] {
		stack = append(stack, k)
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if reachFwd[v] {
			continue
		}
		reachFwd[v] = true
		if v == t || !mid[v] {
			continue
		}
		stack = append(stack, g.succ[v]...)
	}
	if !reachFwd[t] {
		return NoPath
	}
	// reachBwd: nodes that reach t via permitted intermediates.
	reachBwd := make([]bool, len(g.nodes))
	for _, k := range g.pred[t] {
		stack = append(stack, k)
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if reachBwd[v] {
			continue
		}
		reachBwd[v] = true
		if v == f || !mid[v] {
			continue
		}
		stack = append(stack, g.pred[v]...)
	}
	// relevant intermediate nodes lie on some f→t path.
	relevant := func(v int) bool { return mid[v] && reachFwd[v] && reachBwd[v] && v != f && v != t }
	// A cycle among relevant nodes yields infinitely many walks.
	color := make([]int, len(g.nodes)) // 0 white, 1 grey, 2 black
	var cyclic bool
	var dfs func(v int)
	dfs = func(v int) {
		color[v] = 1
		for _, k := range g.succ[v] {
			if !relevant(k) {
				continue
			}
			if color[k] == 1 {
				cyclic = true
				return
			}
			if color[k] == 0 {
				dfs(k)
				if cyclic {
					return
				}
			}
		}
		color[v] = 2
	}
	for v := range g.nodes {
		if relevant(v) && color[v] == 0 {
			dfs(v)
			if cyclic {
				return MultiplePaths
			}
		}
	}
	// DAG over relevant nodes: count paths with memoization, capped at 2.
	memo := make(map[int]int)
	var count func(v int) int
	count = func(v int) int {
		if c, ok := memo[v]; ok {
			return c
		}
		total := 0
		for _, k := range g.succ[v] {
			if k == t {
				total++
			} else if relevant(k) {
				total += count(k)
			}
			if total >= 2 {
				break
			}
		}
		if total > 2 {
			total = 2
		}
		memo[v] = total
		return total
	}
	total := 0
	for _, k := range g.succ[f] {
		if k == t {
			total++
		} else if relevant(k) {
			total += count(k)
		}
		if total >= 2 {
			return MultiplePaths
		}
	}
	if total == 1 {
		return UniquePath
	}
	if total >= 2 {
		return MultiplePaths
	}
	return NoPath
}
