// Package scan implements the comparison baselines of the experiments:
//
//   - FullScan is the "standard database implementation" the paper
//     contrasts against ([ACM93]): parse the entire file with the
//     structuring schema, construct every object, load the class extents
//     into the database, and evaluate the query there. The whole file is
//     scanned and parsed regardless of selectivity.
//   - Grep is the raw text-search baseline: it finds every whole-word
//     occurrence of a constant by scanning the file, which is fast but —
//     as Section 2 stresses — cannot answer structural queries (it cannot
//     tell an author named Chang from an editor named Chang).
package scan

import (
	"fmt"

	"qof/internal/compile"
	"qof/internal/db"
	"qof/internal/grammar"
	"qof/internal/text"
	"qof/internal/xsql"
)

// FullScanResult is the outcome of the parse-everything baseline.
type FullScanResult struct {
	Objects     []db.Value
	Strings     []string // projection results, when the query projects
	Projected   bool
	ObjectsSeen int // objects constructed (the whole extent)
	BytesParsed int
}

// FullScan evaluates the query by building the complete database image of
// the document and filtering in the database.
func FullScan(cat *compile.Catalog, doc *text.Document, q *xsql.Query) (*FullScanResult, error) {
	tree, err := cat.Grammar.Parse(doc)
	if err != nil {
		return nil, fmt.Errorf("scan: %w", err)
	}
	res := &FullScanResult{BytesParsed: doc.Len(), Projected: len(q.Select.Segs) > 0}

	// Load every class extent mentioned by the query.
	database := db.NewDatabase()
	content := doc.Content()
	for _, f := range q.From {
		nt, ok := cat.ClassNT(f.Class)
		if !ok {
			return nil, fmt.Errorf("scan: class %q is not bound", f.Class)
		}
		if database.Count(f.Class) > 0 {
			continue
		}
		for _, node := range tree.Find(nt) {
			database.Insert(f.Class, grammar.BuildValue(node, content))
			res.ObjectsSeen++
		}
	}

	// Nested-loop evaluation with the same condition semantics as the
	// engine's residual filter.
	filter, err := xsql.CompileFilter(q)
	if err != nil {
		return nil, fmt.Errorf("scan: %w", err)
	}
	sel := 0
	for i, f := range q.From {
		if f.Var == q.Select.Var {
			sel = i
		}
	}
	steps := q.Select.Steps()
	vals := make([]db.Value, len(q.From))
	seen := make(map[db.Value]bool)
	var loop func(i int) error
	loop = func(i int) error {
		if i < len(q.From) {
			for _, o := range database.Extent(q.From[i].Class) {
				vals[i] = o.Val
				if err := loop(i + 1); err != nil {
					return err
				}
			}
			return nil
		}
		if !filter.Eval(vals) {
			return nil
		}
		obj := vals[sel]
		if seen[obj] {
			return nil
		}
		seen[obj] = true
		if res.Projected {
			res.Strings = append(res.Strings, db.NavigateStrings(obj, steps)...)
		} else {
			res.Objects = append(res.Objects, obj)
		}
		return nil
	}
	if err := loop(0); err != nil {
		return nil, err
	}
	return res, nil
}

// GrepResult is the outcome of the raw text-search baseline.
type GrepResult struct {
	Occurrences  int // whole-word occurrences of the constant
	BytesScanned int
}

// Grep scans the document for whole-word occurrences of w, the way a
// text-search tool would. It answers "where does the word occur", not the
// structural query.
func Grep(doc *text.Document, w string) GrepResult {
	content := doc.Content()
	res := GrepResult{BytesScanned: len(content)}
	if w == "" {
		return res
	}
	for i := 0; i+len(w) <= len(content); i++ {
		if content[i:i+len(w)] == w && text.IsWord(content, i, i+len(w)) {
			res.Occurrences++
		}
	}
	return res
}
