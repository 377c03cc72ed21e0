package main

import (
	"encoding/json"
	"io"

	"qof/internal/engine"
	"qof/internal/text"
	"qof/internal/xsql"
)

// jsonResult is the machine-readable form of a query outcome.
type jsonResult struct {
	Query   string     `json:"query"`
	Values  []string   `json:"values,omitempty"`
	Objects []jsonSpan `json:"objects,omitempty"`
	Stats   jsonStats  `json:"stats"`
	Explain string     `json:"explain,omitempty"`
}

type jsonSpan struct {
	Start int    `json:"start"`
	End   int    `json:"end"`
	Text  string `json:"text"`
}

type jsonStats struct {
	Results     int  `json:"results"`
	Candidates  int  `json:"candidates"`
	Parsed      int  `json:"parsed"`
	ParsedBytes int  `json:"parsed_bytes"`
	Exact       bool `json:"exact"`
	IndexOnly   bool `json:"index_only"`
	FullScan    bool `json:"full_scan"`
}

// writeJSONResult renders a query result as indented JSON.
func writeJSONResult(w io.Writer, doc *text.Document, q *xsql.Query, res *engine.Result, explain bool) error {
	out := jsonResult{
		Query: q.String(),
		Stats: jsonStats{
			Results:     res.Stats.Results,
			Candidates:  res.Stats.Candidates,
			Parsed:      res.Stats.Parsed,
			ParsedBytes: res.Stats.ParsedBytes,
			Exact:       res.Stats.Exact,
			IndexOnly:   res.Stats.IndexOnly,
			FullScan:    res.Stats.FullScan,
		},
	}
	if explain {
		out.Explain = res.Explain()
	}
	if res.Projected {
		out.Values = res.Strings
	} else {
		for _, r := range res.Regions.Regions() {
			out.Objects = append(out.Objects, jsonSpan{
				Start: int(r.Start), End: int(r.End), Text: doc.Slice(int(r.Start), int(r.End)),
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
