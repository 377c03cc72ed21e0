package refeval

import (
	"fmt"
	"sync"

	"qof/internal/compile"
	"qof/internal/db"
	"qof/internal/grammar"
	"qof/internal/region"
	"qof/internal/text"
	"qof/internal/xsql"
)

// Oracle answers XSQL queries by the dumbest correct strategy: parse the
// whole document once, enumerate every object of every class extent, bind
// range variables by exhaustive nested loops, and evaluate the WHERE clause
// in the database for every assignment. There is no phase 1, no candidate
// narrowing, no exactness shortcut and no plan: the index never enters the
// picture, which is exactly what makes a disagreement with the engine
// meaningful.
type Oracle struct {
	cat *compile.Catalog
	doc *text.Document

	mu      sync.Mutex
	tree    *grammar.Node
	extents map[string]*extent // guarded by mu; lazily filled per class
}

// extent is one class's objects in document order.
type extent struct {
	regions []region.Region
	objects []db.Value
}

// QueryResult mirrors the engine's observable result: the selected objects
// and their regions, or the projected strings.
type QueryResult struct {
	Objects   []db.Value
	Regions   region.Set
	Strings   []string
	Projected bool
}

// NewOracle parses the document with the catalog's grammar. The parse tree
// is the oracle's only data source.
func NewOracle(cat *compile.Catalog, doc *text.Document) (*Oracle, error) {
	tree, err := cat.Grammar.Parse(doc)
	if err != nil {
		return nil, fmt.Errorf("refeval: oracle parse: %w", err)
	}
	return &Oracle{
		cat:     cat,
		doc:     doc,
		tree:    tree,
		extents: make(map[string]*extent),
	}, nil
}

// classExtent materializes (once) every object of the class non-terminal.
func (o *Oracle) classExtent(nt string) *extent {
	o.mu.Lock()
	defer o.mu.Unlock()
	if ext, ok := o.extents[nt]; ok {
		return ext
	}
	ext := &extent{}
	for _, node := range o.tree.Find(nt) {
		ext.regions = append(ext.regions, region.Of(node.Start, node.End))
		ext.objects = append(ext.objects, grammar.BuildValue(node, o.doc.Content()))
	}
	o.extents[nt] = ext
	return ext
}

// Query evaluates q by exhaustive nested loops over the full class extents.
// The result matches Engine.Execute up to order: Regions is a canonical set,
// and Objects/Strings are produced once per distinct region of the select
// variable, as the engine does.
func (o *Oracle) Query(q *xsql.Query) (*QueryResult, error) {
	res := &QueryResult{Projected: len(q.Select.Segs) > 0}
	exts := make([]*extent, len(q.From))
	for i, f := range q.From {
		nt, ok := o.cat.ClassNT(f.Class)
		if !ok {
			return nil, fmt.Errorf("refeval: class %q is not bound to a non-terminal", f.Class)
		}
		exts[i] = o.classExtent(nt)
	}
	steps := q.Select.Steps()
	selVar := q.Select.Var
	seen := make(map[region.Region]bool)
	var kept []region.Region
	filter, err := xsql.CompileFilter(q)
	if err != nil {
		return nil, fmt.Errorf("refeval: %w", err)
	}
	vals := make([]db.Value, len(q.From))
	idx := make([]int, len(q.From))
	var loop func(i int) error
	loop = func(i int) error {
		if i < len(q.From) {
			for k := range exts[i].objects {
				idx[i] = k
				vals[i] = exts[i].objects[k]
				if err := loop(i + 1); err != nil {
					return err
				}
			}
			return nil
		}
		if !filter.Eval(vals) {
			return nil
		}
		for j, f := range q.From {
			if f.Var != selVar {
				continue
			}
			r := exts[j].regions[idx[j]]
			if seen[r] {
				continue
			}
			seen[r] = true
			kept = append(kept, r)
			obj := exts[j].objects[idx[j]]
			if res.Projected {
				res.Strings = append(res.Strings, db.NavigateStrings(obj, steps)...)
			} else {
				res.Objects = append(res.Objects, obj)
			}
		}
		return nil
	}
	if err := loop(0); err != nil {
		return nil, err
	}
	res.Regions = region.FromRegions(kept)
	return res, nil
}
