package serve_test

// The end-to-end differential leg: qgen-generated queries from all three
// domains are driven over HTTP through a sharded qofd daemon (one, two, four
// and seven shards) and every response must be byte-identical to the
// envelope the direct qof facade produces over one corpus holding the same
// files. LIMIT-prefix
// legs re-run succeeding queries with LIMIT k and check both the facade
// agreement and the per-file prefix invariant.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"qof"
	"qof/internal/qgen"
	"qof/internal/serve"
)

const (
	diffCorpusSeed = 1994
	diffQuerySeed  = 733
	filesPerDomain = 4
)

// queriesPerDomain matches the acceptance floor for the HTTP differential
// leg; -short trims it for local iteration.
func queriesPerDomain(t *testing.T) int {
	if testing.Short() {
		return 100
	}
	return 600
}

// domainFiles builds a multi-file corpus for one domain by regenerating its
// document under distinct seeds.
func domainFiles(name string) map[string]string {
	files := make(map[string]string, filesPerDomain)
	for i := int64(0); i < filesPerDomain; i++ {
		var d *qgen.Domain
		switch name {
		case "bibtex":
			d = qgen.BibTeX(diffCorpusSeed + i)
		case "sgml":
			d = qgen.SGML(diffCorpusSeed + i)
		case "logs":
			d = qgen.Logs(diffCorpusSeed + i)
		default:
			panic("unknown domain " + name)
		}
		files[d.Doc.Name()] = d.Doc.Content()
	}
	return files
}

func schemaFor(name string) *qof.Schema {
	switch name {
	case "bibtex":
		return qof.BibTeX()
	case "sgml":
		return qof.SGML()
	case "logs":
		return qof.Logs()
	}
	panic("unknown domain " + name)
}

// daemonLeg is one running qofd under test.
type daemonLeg struct {
	name   string
	shards int
	srv    *serve.Server
	ts     *httptest.Server
}

func startLeg(t *testing.T, name string, schema *qof.Schema, files map[string]string, shards int) *daemonLeg {
	t.Helper()
	return startLegCfg(t, name, files, serve.Config{Schema: schema, Shards: shards})
}

func startLegCfg(t *testing.T, name string, files map[string]string, cfg serve.Config) *daemonLeg {
	t.Helper()
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Publish(files); err != nil {
		t.Fatalf("%s: publish: %v", name, err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &daemonLeg{name: name, shards: cfg.Shards, srv: srv, ts: ts}
}

// post drives one query over HTTP and returns the raw response body.
func (l *daemonLeg) post(t *testing.T, query string) []byte {
	t.Helper()
	return l.postReq(t, serve.QueryRequest{Query: query})
}

func (l *daemonLeg) postReq(t *testing.T, req serve.QueryRequest) []byte {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(l.ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("%s: POST /query: %v", l.name, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("%s: reading body: %v", l.name, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: query %q: status %d: %s", l.name, req.Query, resp.StatusCode, buf.String())
	}
	return buf.Bytes()
}

// canonical re-marshals a response body with the one timing-dependent field
// (elapsed_us) zeroed; every other byte must be reproducible.
func canonical(t *testing.T, raw []byte) []byte {
	t.Helper()
	var env serve.Envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("bad envelope %s: %v", raw, err)
	}
	env.ElapsedUs = 0
	out, err := json.Marshal(&env)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// expected builds the envelope bytes the daemon must produce, from a direct
// facade execution of the same query over one corpus holding every file.
func expected(t *testing.T, res *qof.CorpusResults, epoch uint64, shards, files int) []byte {
	t.Helper()
	hits, degraded := serve.HitsFromCorpus(res, shards)
	env := serve.NewEnvelope(&serve.Response{
		Epoch: epoch, Shards: shards, Files: files,
		Hits: hits, Degraded: degraded, Stats: res.Stats,
	})
	env.ElapsedUs = 0
	out, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestHTTPDifferential is the serving layer's differential guarantee: for
// every generated query, the daemon's HTTP answer — sharded N=1, 2, 4 and 7
// — is byte-identical to the direct facade's answer over the same files.
func TestHTTPDifferential(t *testing.T) {
	for _, domain := range []string{"bibtex", "sgml", "logs"} {
		domain := domain
		t.Run(domain, func(t *testing.T) {
			t.Parallel()
			files := domainFiles(domain)
			nFiles := len(files)
			schema := schemaFor(domain)

			// The direct facade reference: one corpus, every file.
			direct := schema.NewCorpus()
			if err := direct.AddAll(files); err != nil {
				t.Fatal(err)
			}

			var legs []*daemonLeg
			for _, shards := range []int{1, 2, 4, 7} {
				legs = append(legs, startLeg(t, fmt.Sprintf("%s/shards=%d", domain, shards), schema, files, shards))
			}

			gen := qgen.NewQueryGen(qgenDomain(domain), diffQuerySeed)
			n := queriesPerDomain(t)
			nonEmpty, limitChecked := 0, 0
			for i := 0; i < n; i++ {
				q := gen.Query()
				src := q.String()
				res, err := direct.ExecuteContext(t.Context(), src, qof.WithPartialResults())
				if err != nil {
					t.Fatalf("query %d %q: direct facade: %v", i, src, err)
				}
				for _, leg := range legs {
					got := canonical(t, leg.post(t, src))
					want := expected(t, res, leg.srv.Epoch(), leg.shards, nFiles)
					if !bytes.Equal(got, want) {
						t.Fatalf("query %d %q: %s diverges from the direct facade:\n  got  %s\n  want %s",
							i, src, leg.name, got, want)
					}
				}
				if len(res.Hits) > 0 {
					nonEmpty++
				}
				// LIMIT-prefix leg: rerun succeeding queries with LIMIT k and
				// check facade agreement plus the per-file prefix invariant.
				if q.Limit == 0 && len(res.Degraded) == 0 && res.Stats.Results > 1 {
					limitChecked++
					for _, k := range []int{1, 3} {
						lsrc := fmt.Sprintf("%s LIMIT %d", src, k)
						lres, err := direct.ExecuteContext(t.Context(), lsrc, qof.WithPartialResults())
						if err != nil {
							t.Fatalf("query %d %q: direct facade: %v", i, lsrc, err)
						}
						for _, leg := range legs {
							got := canonical(t, leg.post(t, lsrc))
							want := expected(t, lres, leg.srv.Epoch(), leg.shards, nFiles)
							if !bytes.Equal(got, want) {
								t.Fatalf("query %d %q: %s diverges from the direct facade:\n  got  %s\n  want %s",
									i, lsrc, leg.name, got, want)
							}
						}
						if len(q.From) == 1 {
							projected := len(q.Select.Segs) > 0
							if err := checkLimitPrefix(res, lres, k, projected); err != nil {
								t.Fatalf("query %d %q: %v", i, lsrc, err)
							}
						}
					}
				}
			}
			if min := n / 10; nonEmpty < min {
				t.Errorf("only %d/%d queries had hits, want ≥ %d — workload too vacuous", nonEmpty, n, min)
			}
			if limitChecked == 0 {
				t.Error("no query qualified for the LIMIT-prefix leg")
			}
		})
	}
}

// qgenDomain returns the qgen domain (word pools, classes) for query
// generation; the corpus documents come from domainFiles instead.
func qgenDomain(name string) *qgen.Domain {
	switch name {
	case "bibtex":
		return qgen.BibTeX(diffCorpusSeed)
	case "sgml":
		return qgen.SGML(diffCorpusSeed)
	case "logs":
		return qgen.Logs(diffCorpusSeed)
	}
	panic("unknown domain " + name)
}

// checkLimitPrefix verifies the corpus LIMIT contract per file for
// single-variable queries: a limited hit is a document-order prefix of the
// file's full answer. For whole-object selects one span is one row, so the
// span count is exactly min(k, full spans); for projections a row may
// contribute several values and its extent regions form a set, so only the
// prefix property is asserted.
func checkLimitPrefix(full, limited *qof.CorpusResults, k int, projected bool) error {
	fullByFile := make(map[string]qof.CorpusHit, len(full.Hits))
	for _, h := range full.Hits {
		fullByFile[h.File] = h
	}
	for _, lh := range limited.Hits {
		fh, ok := fullByFile[lh.File]
		if !ok {
			return fmt.Errorf("LIMIT %d: file %s has limited hits but no full hits", k, lh.File)
		}
		if !projected {
			if want := min(k, len(fh.Spans)); len(lh.Spans) != want {
				return fmt.Errorf("LIMIT %d: file %s returned %d spans, want %d (full %d)",
					k, lh.File, len(lh.Spans), want, len(fh.Spans))
			}
		}
		for i, sp := range lh.Spans {
			if sp != fh.Spans[i] {
				return fmt.Errorf("LIMIT %d: file %s span %d is %+v, full answer has %+v — not a prefix",
					k, lh.File, i, sp, fh.Spans[i])
			}
		}
		if len(lh.Values) > len(fh.Values) {
			return fmt.Errorf("LIMIT %d: file %s returned %d values, full answer has %d",
				k, lh.File, len(lh.Values), len(fh.Values))
		}
		for i, v := range lh.Values {
			if v != fh.Values[i] {
				return fmt.Errorf("LIMIT %d: file %s value %d is %q, full answer has %q — not a prefix",
					k, lh.File, i, v, fh.Values[i])
			}
		}
	}
	return nil
}

// TestHTTPDifferentialDegraded pins the byte-identity contract on the
// degraded path too: under a one-region budget every file trips the budget
// deterministically, and the daemon's degraded envelope matches the direct
// facade's degradation file for file, error for error.
func TestHTTPDifferentialDegraded(t *testing.T) {
	files := domainFiles("bibtex")
	schema := schemaFor("bibtex")
	direct := schema.NewCorpus()
	if err := direct.AddAll(files); err != nil {
		t.Fatal(err)
	}
	leg := startLeg(t, "bibtex/shards=4", schema, files, 4)
	const src = `SELECT r FROM References r`
	res, err := direct.ExecuteContext(t.Context(), src,
		qof.WithPartialResults(), qof.WithMaxRegions(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Degraded) != len(files) {
		t.Fatalf("facade degraded %d files, want %d", len(res.Degraded), len(files))
	}
	got := canonical(t, leg.postReq(t, serve.QueryRequest{Query: src, MaxRegions: 1}))
	want := expected(t, res, leg.srv.Epoch(), 4, len(files))
	if !bytes.Equal(got, want) {
		t.Fatalf("degraded envelope diverges:\n  got  %s\n  want %s", got, want)
	}
	if !strings.Contains(string(got), `"degraded"`) {
		t.Fatalf("degraded envelope lost its degradation: %s", got)
	}
}

// TestHTTPDifferentialReplicated pins the tentpole invariant: replication
// is envelope-invisible. The full shard grid (1, 2, 4, 7) runs with two
// replicas per file, and every response must be
// byte-identical to the direct single-corpus facade — replica copies must
// never double-count hits, stats, or file totals. A final leg forces one
// shard's breaker open and replays the workload: answers must come from
// failover to the surviving replica (complete and still byte-identical),
// not from degradation.
func TestHTTPDifferentialReplicated(t *testing.T) {
	files := domainFiles("bibtex")
	nFiles := len(files)
	schema := schemaFor("bibtex")
	direct := schema.NewCorpus()
	if err := direct.AddAll(files); err != nil {
		t.Fatal(err)
	}

	var legs []*daemonLeg
	for _, shards := range []int{1, 2, 4, 7} {
		legs = append(legs, startLegCfg(t, fmt.Sprintf("bibtex/shards=%d+r2", shards), files, serve.Config{
			Schema:   schema,
			Shards:   shards,
			Replicas: 2,
		}))
	}
	// The forced-failover leg: shard 0's breaker is pinned open, so every
	// group with primary 0 must route to its secondary replica.
	broken := startLegCfg(t, "bibtex/shards=2+r2+breaker-open", files, serve.Config{
		Schema:   schema,
		Shards:   2,
		Replicas: 2,
	})
	broken.srv.ForceBreaker(0, true)

	gen := qgen.NewQueryGen(qgenDomain("bibtex"), diffQuerySeed+2)
	n := queriesPerDomain(t) / 4
	for i := 0; i < n; i++ {
		src := gen.Query().String()
		res, err := direct.ExecuteContext(t.Context(), src, qof.WithPartialResults())
		if err != nil {
			t.Fatalf("query %d %q: direct facade: %v", i, src, err)
		}
		for _, leg := range legs {
			got := canonical(t, leg.post(t, src))
			want := expected(t, res, leg.srv.Epoch(), leg.shards, nFiles)
			if !bytes.Equal(got, want) {
				t.Fatalf("query %d %q: %s diverges from the direct facade:\n  got  %s\n  want %s",
					i, src, leg.name, got, want)
			}
		}
		got := canonical(t, broken.post(t, src))
		want := expected(t, res, broken.srv.Epoch(), broken.shards, nFiles)
		if !bytes.Equal(got, want) {
			t.Fatalf("query %d %q: %s diverges with shard 0's breaker open:\n  got  %s\n  want %s",
				i, src, broken.name, got, want)
		}
	}
	// The broken leg must have answered by failover, never by writing off
	// the shard: the envelopes above are complete, and the failover counter
	// proves the secondary actually served.
	if got := broken.srv.Metrics().FailoversTotal; got == 0 {
		t.Error("breaker-open leg recorded no failovers; shard 0 files were never rerouted")
	}
	if st := broken.srv.BreakerState(0); st != "open" {
		t.Errorf("forced breaker reads %s after the workload, want open", st)
	}
}
