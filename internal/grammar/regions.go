package grammar

import (
	"context"
	"fmt"
	"io"

	"qof/internal/faultinject"
	"qof/internal/index"
	"qof/internal/pool"
	"qof/internal/region"
	"qof/internal/text"
)

// extractRegions collects the regions of the given non-terminal names from
// a parse tree: one region per occurrence, exactly "the set of all regions
// corresponding to occurrences of Ai in the parse tree of the file"
// (Section 4.2). With no names, every non-terminal in the tree is
// extracted.
func extractRegions(tree *Node, names ...string) map[string]region.Set {
	// A slice per name behind a pointer: a node costs one map probe.
	groups := make(map[string]*[]region.Region, len(names))
	for _, n := range names {
		groups[n] = new([]region.Region)
	}
	tree.Walk(func(n *Node) bool {
		if n.Term {
			return true
		}
		rs := groups[n.Sym]
		if rs == nil {
			if len(names) > 0 {
				return true
			}
			rs = new([]region.Region)
			groups[n.Sym] = rs
		}
		*rs = append(*rs, region.Of(n.Start, n.End))
		return true
	})
	// Names requested but absent in the tree index as empty sets.
	out := make(map[string]region.Set, len(groups))
	for name, rs := range groups {
		out[name] = region.FromRegions(*rs)
	}
	return out
}

// extractScopedRegions collects regions of name occurring inside an
// occurrence of within — the paper's selective indexing ("instead of
// indexing all the Name regions ... index only those that reside in some
// Authors region", Section 7). The tree's root counts: a name under a root
// that is itself a within occurrence is in scope.
func extractScopedRegions(tree *Node, name, within string) region.Set {
	var rs []region.Region
	var walk func(n *Node, inside bool)
	walk = func(n *Node, inside bool) {
		if !n.Term {
			if inside && n.Sym == name {
				rs = append(rs, region.Of(n.Start, n.End))
			}
			if n.Sym == within {
				inside = true
			}
		}
		for _, k := range n.Kids {
			walk(k, inside)
		}
	}
	walk(tree, false)
	return region.FromRegions(rs)
}

// IndexSpec describes which regions to index. Nil Names means "all
// non-terminals except the root" (full indexing, Section 5); otherwise only
// the listed names are indexed (partial indexing, Section 6). Scoped adds
// selectively indexed names restricted to a surrounding region (Section 7);
// a scoped entry overrides a global entry of the same name.
type IndexSpec struct {
	Names  []string
	Scoped []ScopedName
}

// ScopedName selectively indexes Name only inside Within regions.
type ScopedName struct {
	Name   string
	Within string
}

// FullIndexSpec returns the specification indexing every non-terminal
// except the root.
func (g *Grammar) FullIndexSpec() IndexSpec {
	var names []string
	for _, n := range g.ntOrder {
		if n != g.root {
			names = append(names, n)
		}
	}
	return IndexSpec{Names: names}
}

// BuildInstance parses the document and builds the region-index instance
// described by spec, with the document's word index. The second result is
// always nil: the build keeps no parse tree — what it parses is pruned to
// the spec, and BuildValue over that would yield partial values. Callers that want a tree call Parse. (The result
// stays in the signature for bench/, which may not change with this code.)
func (g *Grammar) BuildInstance(doc *text.Document, spec IndexSpec) (*index.Instance, *Node, error) {
	return g.BuildInstanceContext(context.Background(), doc, spec)
}

// LoadInstance reads an index written by Instance.Save and re-attaches it
// to doc (index.Load), then checks that it is this grammar's: every indexed
// name and every scope must be one of its non-terminals, and the regions
// must satisfy the grammar's RIG projected onto the indexed names as the
// compiler projects it (Definition 3.1), which every rewrite assumes. An
// index saved under another schema, or one whose regions nest as no parse
// of the grammar does, fails with an error wrapping index.ErrIndexMismatch.
func (g *Grammar) LoadInstance(r io.Reader, doc *text.Document) (*index.Instance, error) {
	in, err := index.Load(r, doc)
	if err != nil {
		return nil, err
	}
	for _, name := range in.Names() {
		if _, ok := g.prods[name]; !ok {
			return nil, fmt.Errorf("%w: region %q is not a non-terminal of the grammar", index.ErrIndexMismatch, name)
		}
		if scope := in.Scope(name); scope != "" && g.prods[scope] == nil {
			return nil, fmt.Errorf("%w: scope %q of region %q is not a non-terminal of the grammar", index.ErrIndexMismatch, scope, name)
		}
	}
	var opaque []string
	for _, name := range in.Names() {
		if in.Scope(name) == "" {
			opaque = append(opaque, name)
		}
	}
	if err := g.DeriveRIG().ProjectTransparent(in.Names(), opaque).Satisfies(in); err != nil {
		return nil, fmt.Errorf("%w: %v", index.ErrIndexMismatch, err)
	}
	return in, nil
}

// newWordIndex builds the word index; a variable so that a test can make
// the build's word-index side panic. Nothing else writes it.
var newWordIndex = index.NewWordIndex

// BuildInstanceContext is BuildInstance under a context: cancellation is
// checked before the parse and after it, so an abandoned build stops
// promptly and publishes nothing.
//
// The file's regions come from Regions, and the word index is built on an
// idle helper (package pool) while it parses, or first, on the caller's
// goroutine, when no helper is idle. The helper's work is joined on every
// path out, a panicking parse included, and a panic inside it is raised
// again here, on the caller's goroutine, where the caller's recover can see
// it.
func (g *Grammar) BuildInstanceContext(ctx context.Context, doc *text.Document, spec IndexSpec) (*index.Instance, *Node, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if err := faultinject.Hit(faultinject.IndexBuild); err != nil {
		return nil, nil, fmt.Errorf("grammar: building index for %s: %w", doc.Name(), err)
	}
	if err := index.CheckDocument(doc); err != nil {
		return nil, nil, err
	}
	var (
		x       *index.WordIndex
		crashed any
		joined  = make(chan struct{})
	)
	words := func() {
		defer close(joined)
		defer func() { crashed = recover() }()
		x = newWordIndex(doc)
	}
	if !pool.TryGo(words) {
		words()
	}
	named, scoped, err := func() (map[string]region.Set, []region.Set, error) {
		defer func() { <-joined }()
		return g.Regions(ctx, doc, spec, g.root, 0, int32(doc.Len()))
	}()
	if crashed != nil {
		panic(crashed)
	}
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	scopes := make(map[string]string, len(spec.Scoped))
	for i, sc := range spec.Scoped {
		named[sc.Name], scopes[sc.Name] = scoped[i], sc.Within
	}
	return index.New(x, named, scopes), nil, nil
}

// Regions parses [from, to) of the document as sym under spec's index need
// (indexNeed) and returns the regions of each indexed name — every
// non-terminal but the root when Names is nil — and of each scoped entry, in
// spec.Scoped's order, counting only scope occurrences inside the range. A
// build and a full scan pass the root and the whole document, an edit the
// range it re-extracts. Subtrees that reach no indexed name are recognised
// and nothing is built for them; the errors are ParseAs's. The context is
// checked once, after the parse.
func (g *Grammar) Regions(ctx context.Context, doc *text.Document, spec IndexSpec, sym string, from, to int32) (map[string]region.Set, []region.Set, error) {
	names := spec.Names
	if names == nil {
		names = g.FullIndexSpec().Names
	}
	need, err := g.indexNeed(sym, names, spec.Scoped)
	if err != nil {
		return nil, nil, err
	}
	tree, err := g.parseWith(new(runner), doc, sym, int(from), int(to), need)
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	scoped := make([]region.Set, len(spec.Scoped))
	for i, sc := range spec.Scoped {
		scoped[i] = extractScopedRegions(tree, sc.Name, sc.Within)
	}
	return extractRegions(tree, names...), scoped, nil
}

// indexNeed compiles an index spec into the need a parse of start parses
// under: one node per non-terminal, and child(sym) non-nil exactly when sym
// is indexed (a global name, a scoped name or its scope) or some indexed
// non-terminal is reachable beneath it. all is false throughout, so no
// terminal leaf is made. The extractors then walk a tree that holds every
// occurrence of an indexed name with its ancestors, and nothing else.
//
// Unlike a compiled ReadSet this is a graph — sgml's Section within Section
// is a cycle in it, not an unrolling — so it must never reach String,
// Describe, paths or prune, which recurse over a trie and would not end.
// It is made here, handed to parseWith, and goes nowhere else.
func (g *Grammar) indexNeed(start string, names []string, scoped []ScopedName) (*ReadSet, error) {
	prog, err := g.program()
	if err != nil {
		return nil, err
	}
	root := prog.ids[start] // an unknown start is parseWith's error, before the need is read
	live := make([]bool, len(prog.names))
	for id := range live {
		// extractRegions reads "no names" as "every non-terminal", and the
		// extractors are handed a root, indexed or not.
		live[id] = len(names) == 0 || id == root
	}
	mark := func(name string) {
		if id, ok := prog.ids[name]; ok {
			live[id] = true
		}
	}
	for _, n := range names {
		mark(n)
	}
	for _, sc := range scoped {
		mark(sc.Name)
		mark(sc.Within)
	}
	nodes := make([]ReadSet, len(live))
	for grew := true; grew; { // to a fixed point: a live child makes its parent live and is its kid
		grew = false
		for id, prods := range prog.prods {
			for _, p := range prods {
				for _, e := range p.elems {
					if (e.kind == ElemNT || e.kind == ElemRep) && live[e.sym] && nodes[id].child(e.sym) == nil {
						nodes[id].kids = append(nodes[id].kids, readKid{name: prog.names[e.sym], sym: e.sym, sub: &nodes[e.sym]})
						live[id], grew = true, true
					}
				}
			}
		}
	}
	return &nodes[root], nil
}
