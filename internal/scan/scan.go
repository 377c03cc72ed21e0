// Package scan implements the comparison baselines of the paper's
// experiments (the root package's BenchmarkE1, E6, E7 and E10):
//
//   - FullScan is the "standard database implementation" the paper
//     contrasts against ([ACM93]): parse the entire file with the
//     structuring schema, construct every object of each class the query
//     names, and evaluate the query over those extents by nested loops.
//     The whole file is scanned and parsed regardless of selectivity. It
//     is the brute-force oracle (refeval.Oracle) run once.
//   - Grep is the raw text-search baseline: it finds every whole-word
//     occurrence of a constant by scanning the file, which is fast but —
//     as Section 2 stresses — cannot answer structural queries (it cannot
//     tell an author named Chang from an editor named Chang).
package scan

import (
	"fmt"

	"qof/internal/compile"
	"qof/internal/db"
	"qof/internal/refeval"
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

// FullScan evaluates the query by parsing the whole document, building
// every object of each class the query ranges over, and filtering them by
// nested loops: a fresh refeval.Oracle answers it.
func FullScan(cat *compile.Catalog, doc *text.Document, q *xsql.Query) (*FullScanResult, error) {
	o, err := refeval.NewOracle(cat, doc)
	if err != nil {
		return nil, fmt.Errorf("scan: %w", err)
	}
	res, err := o.Query(q)
	if err != nil {
		return nil, fmt.Errorf("scan: %w", err)
	}
	return &FullScanResult{
		Objects:     res.Objects,
		Strings:     res.Strings,
		Projected:   res.Projected,
		ObjectsSeen: o.Built(),
		BytesParsed: doc.Len(),
	}, nil
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
