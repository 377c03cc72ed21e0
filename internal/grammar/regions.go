package grammar

import (
	"context"
	"fmt"

	"qof/internal/faultinject"
	"qof/internal/index"
	"qof/internal/region"
	"qof/internal/text"
)

// ExtractRegions collects the regions of the given non-terminal names from
// a parse tree: one region per occurrence, exactly "the set of all regions
// corresponding to occurrences of Ai in the parse tree of the file"
// (Section 4.2). With no names, every non-terminal in the tree is
// extracted.
func ExtractRegions(tree *Node, names ...string) map[string]region.Set {
	keep := make(map[string]bool, len(names))
	for _, n := range names {
		keep[n] = true
	}
	groups := make(map[string][]region.Region)
	tree.Walk(func(n *Node) bool {
		if !n.Term && (len(keep) == 0 || keep[n.Sym]) {
			groups[n.Sym] = append(groups[n.Sym], region.Region{Start: n.Start, End: n.End})
		}
		return true
	})
	out := make(map[string]region.Set, len(groups))
	for name, rs := range groups {
		out[name] = region.FromRegions(rs)
	}
	// Names requested but absent in the tree index as empty sets.
	for _, n := range names {
		if _, ok := out[n]; !ok {
			out[n] = region.Empty
		}
	}
	return out
}

// ExtractScopedRegions collects regions of name occurring inside an
// occurrence of within — the paper's selective indexing ("instead of
// indexing all the Name regions ... index only those that reside in some
// Authors region", Section 7).
func ExtractScopedRegions(tree *Node, name, within string) region.Set {
	var rs []region.Region
	var walk func(n *Node, inside bool)
	walk = func(n *Node, inside bool) {
		if !n.Term {
			if inside && n.Sym == name {
				rs = append(rs, region.Region{Start: n.Start, End: n.End})
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
// described by spec (plus the word index, which index.NewInstance always
// provides). It returns the instance and the parse tree, which callers use
// for the full-scan baseline and for loading candidate objects.
func (g *Grammar) BuildInstance(doc *text.Document, spec IndexSpec) (*index.Instance, *Node, error) {
	return g.BuildInstanceContext(context.Background(), doc, spec)
}

// BuildInstanceContext is BuildInstance under a context: cancellation is
// checked at stage boundaries (before the parse, before region extraction,
// and between index definitions), so an abandoned build stops promptly
// without ever publishing a partially defined instance.
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
	tree, err := g.Parse(doc)
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	in := index.NewInstance(doc)
	names := spec.Names
	if names == nil {
		names = g.FullIndexSpec().Names
	}
	for name, set := range ExtractRegions(tree, names...) {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		in.Define(name, set)
	}
	for _, sc := range spec.Scoped {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		in.DefineScoped(sc.Name, sc.Within, ExtractScopedRegions(tree, sc.Name, sc.Within))
	}
	return in, tree, nil
}
