package main

// The correctness oracle. Every pool query gets a fingerprint (row count +
// FNV-1a over its rows) at set-up, every timed response is checked against
// it, and the fingerprints themselves are verified two independent ways:
// against scan.FullScan — the parse-everything baseline that shares no code
// with the index algebra — on a same-seed small corpus, and against the
// generator's ground truth at full size.

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"qof"
	"qof/internal/bibtex"
	"qof/internal/db"
	"qof/internal/scan"
	"qof/internal/serve"
	"qof/internal/text"
	"qof/internal/xsql"
)

// fingerprint identifies an answer: how many rows, and an FNV-1a hash of
// them in order. The zero value is the empty answer.
type fingerprint struct {
	Rows int
	Hash uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (f *fingerprint) addByte(b byte) {
	if f.Hash == 0 {
		f.Hash = fnvOffset
	}
	f.Hash = (f.Hash ^ uint64(b)) * fnvPrime
}

// addString hashes s and a terminator, so ("ab","c") and ("a","bc") differ.
func (f *fingerprint) addString(s string) {
	for i := 0; i < len(s); i++ {
		f.addByte(s[i])
	}
	f.addByte(0xff)
}

func (f *fingerprint) addInt(v int) {
	for i := 0; i < 8; i++ {
		f.addByte(byte(v >> (8 * i)))
	}
}

// addHit hashes one file's results in the form every layer can produce —
// the file name, span offsets for whole-object selects, strings for
// projections — so a File, a Corpus, a Server and the daemon's envelope all
// fingerprint the same answer the same way. A projection's answer is its
// values: the corpus layers also report the regions they were read from,
// which a File does not, so spans beside values are left out.
func (f *fingerprint) addHit(h qof.CorpusHit) {
	f.addString(h.File)
	if len(h.Values) > 0 {
		for _, v := range h.Values {
			f.addString(v)
		}
		f.Rows += len(h.Values)
		return
	}
	for _, sp := range h.Spans {
		f.addInt(sp.Start)
		f.addInt(sp.End)
	}
	f.Rows += len(h.Spans)
}

// addResults adds one file's answer as the hit a corpus would report for
// it: none when the answer is empty.
func (f *fingerprint) addResults(file string, r *qof.Results) {
	if r.Len() > 0 {
		f.addHit(qof.CorpusHit{File: file, Spans: r.Spans, Values: r.Values})
	}
}

func fingerprintResults(file string, r *qof.Results) fingerprint {
	var f fingerprint
	f.addResults(file, r)
	return f
}

func fingerprintHits(hits []qof.CorpusHit) fingerprint {
	var f fingerprint
	for _, h := range hits {
		f.addHit(h)
	}
	return f
}

// envelopeHits turns the daemon's wire form back into facade hits.
func envelopeHits(env *serve.Envelope) []qof.CorpusHit {
	hits := make([]qof.CorpusHit, len(env.Hits))
	for i, h := range env.Hits {
		hits[i] = qof.CorpusHit{File: h.File, Values: h.Values, Spans: make([]qof.Span, len(h.Spans))}
		for k, sp := range h.Spans {
			hits[i].Spans[k] = qof.Span{Start: sp.Start, End: sp.End}
		}
	}
	return hits
}

// answerer is the system under test reduced to what the oracle needs: one
// query in, the files' hits out.
type answerer func(ctx context.Context, src string) ([]qof.CorpusHit, error)

func fileAnswerer(f *qof.File) answerer {
	return func(ctx context.Context, src string) ([]qof.CorpusHit, error) {
		res, err := f.QueryContext(ctx, src)
		if err != nil {
			return nil, err
		}
		if res.Len() == 0 {
			return nil, nil
		}
		return []qof.CorpusHit{{File: f.Name(), Spans: res.Spans, Values: res.Values}}, nil
	}
}

func corpusAnswerer(c *qof.Corpus) answerer {
	return func(ctx context.Context, src string) ([]qof.CorpusHit, error) {
		res, err := c.ExecuteContext(ctx, src)
		if err != nil {
			return nil, err
		}
		return res.Hits, nil
	}
}

// indexOptions turns a workload's indexing choice into facade options.
func indexOptions(regions []string) []qof.IndexOption {
	if regions == nil {
		return nil
	}
	return []qof.IndexOption{qof.WithRegions(regions...)}
}

// buildAnswerer indexes the files the way the workload is driven: one File
// for a single document, a Corpus for several.
func buildAnswerer(ctx context.Context, docs []doc, regions []string) (answerer, error) {
	if len(docs) == 1 {
		f, err := qof.BibTeX().IndexContext(ctx, docs[0].name, docs[0].content, indexOptions(regions)...)
		if err != nil {
			return nil, err
		}
		return fileAnswerer(f), nil
	}
	c, err := buildCorpus(ctx, docs, regions)
	if err != nil {
		return nil, err
	}
	return corpusAnswerer(c), nil
}

func buildCorpus(ctx context.Context, docs []doc, regions []string) (*qof.Corpus, error) {
	c := qof.BibTeX().NewCorpus()
	files := make(map[string]string, len(docs))
	for _, d := range docs {
		files[d.name] = d.content
	}
	if err := c.AddAllContext(ctx, files, indexOptions(regions)...); err != nil {
		return nil, err
	}
	return c, nil
}

// keyOf extracts the reference key from a Reference region's text.
func keyOf(ref string) string {
	const open = "@INCOLLECTION{"
	ref = strings.TrimPrefix(ref, open)
	if i := strings.IndexByte(ref, ','); i >= 0 {
		return ref[:i]
	}
	return ref
}

// rowsOf renders an answer as comparable rows: "file|key" per selected
// object, "file|value" per projected string.
func rowsOf(docs map[string]string, hits []qof.CorpusHit) []string {
	var rows []string
	for _, h := range hits {
		for _, v := range h.Values {
			rows = append(rows, h.File+"|"+v)
		}
		if len(h.Values) > 0 {
			continue // a projection; see addHit
		}
		content := docs[h.File]
		for _, sp := range h.Spans {
			rows = append(rows, h.File+"|"+keyOf(content[sp.Start:sp.End]))
		}
	}
	return rows
}

// fullScanRows answers src by scan.FullScan over every file, applying the
// per-file LIMIT the way the engine defines it: a document-order prefix.
func fullScanRows(docs []doc, src string) ([]string, error) {
	q, err := xsql.Parse(src)
	if err != nil {
		return nil, err
	}
	cat := bibtex.Catalog()
	var rows []string
	for _, d := range docs {
		res, err := scan.FullScan(cat, text.NewDocument(d.name, d.content), q)
		if err != nil {
			return nil, err
		}
		var fileRows []string
		for _, o := range res.Objects {
			key := ""
			if t, ok := o.(*db.Tuple); ok {
				if k, ok := t.Get(bibtex.NTKey); ok {
					key = strings.Join(db.Strings(k), "")
				}
			}
			fileRows = append(fileRows, d.name+"|"+key)
		}
		for _, s := range res.Strings {
			fileRows = append(fileRows, d.name+"|"+s)
		}
		if q.Limit > 0 && len(fileRows) > q.Limit {
			fileRows = fileRows[:q.Limit]
		}
		rows = append(rows, fileRows...)
	}
	return rows, nil
}

// checkFullScan compares the answerer with scan.FullScan on the given
// queries over docs. It returns the number of queries compared.
func checkFullScan(ctx context.Context, docs []doc, ans answerer, queries []string) (int, error) {
	content := make(map[string]string, len(docs))
	for _, d := range docs {
		content[d.name] = d.content
	}
	for _, src := range queries {
		hits, err := ans(ctx, src)
		if err != nil {
			return 0, fmt.Errorf("oracle: %s: %w", src, err)
		}
		got := rowsOf(content, hits)
		want, err := fullScanRows(docs, src)
		if err != nil {
			return 0, fmt.Errorf("oracle: full scan of %s: %w", src, err)
		}
		if !slices.Equal(got, want) {
			return 0, fmt.Errorf("oracle: %s: engine answers %d rows, full scan %d (first difference at row %d)",
				src, len(got), len(want), firstDiff(got, want))
		}
	}
	return len(queries), nil
}

func firstDiff(a, b []string) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// oracleReport says what the set-up verification covered.
type oracleReport struct {
	fullScanChecked int // pool queries compared with scan.FullScan on the small corpus
	truthChecked    int // pool queries compared with generator ground truth at full size
}

// verifyPool runs the two independent checks on a workload's pool. expected
// holds the full-size fingerprints taken through ans.
func verifyPool(ctx context.Context, w *workload, sc scale, seed int64, expected []fingerprint) (oracleReport, error) {
	var rep oracleReport
	for i, q := range w.pool {
		if q.rows < 0 {
			continue
		}
		if expected[i].Rows != q.rows {
			return rep, fmt.Errorf("oracle: %s: answers %d rows, generator ground truth says %d",
				q.src, expected[i].Rows, q.rows)
		}
		rep.truthChecked++
	}

	// The small corpus comes from the same seed and generator settings,
	// so every template and every drawn name or word behaves as at full
	// size; scan.FullScan re-parses the corpus per query, which is why
	// it cannot run at full size.
	files, refs := len(w.docs), sc.oracleRefs
	if files > 1 {
		refs = sc.oracleRefs / files
	}
	small := genDocs(subSeed(seed, "oracle"), files, refs)
	ans, err := buildAnswerer(ctx, small, w.regions)
	if err != nil {
		return rep, fmt.Errorf("oracle: indexing the small corpus: %w", err)
	}
	picked := roundRobin(len(w.pool))
	if sc.oracleQueries > 0 {
		picked = sampleIndexes(seed, "oracle/"+w.name, len(w.pool), sc.oracleQueries)
	}
	queries := make([]string, len(picked))
	for i, p := range picked {
		queries[i] = w.pool[p].src
	}
	rep.fullScanChecked, err = checkFullScan(ctx, small, ans, queries)
	return rep, err
}

func (f fingerprint) String() string {
	return strconv.Itoa(f.Rows) + ":" + strconv.FormatUint(f.Hash, 16)
}
