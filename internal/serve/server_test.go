package serve_test

// Unit tests for the serving layer: publish/epoch lifecycle, admission and
// shedding over HTTP, the request decoder, and the metrics surface. The
// differential harness in diff_test.go proves answer correctness; these
// tests pin down the daemon's operational contract.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"qof"
	"qof/internal/bibtex"
	"qof/internal/faultinject"
	"qof/internal/serve"
)

const changQuery = `SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`

func sampleFiles(n int) map[string]string {
	files := make(map[string]string, n)
	for i := 0; i < n; i++ {
		files[fmt.Sprintf("doc-%02d.bib", i)] = bibtex.SampleEntry
	}
	return files
}

func newServer(t *testing.T, cfg serve.Config) *serve.Server {
	t.Helper()
	if cfg.Schema == nil {
		cfg.Schema = qof.BibTeX()
	}
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestServerRequiresSchema(t *testing.T) {
	if _, err := serve.New(serve.Config{}); err == nil {
		t.Fatal("New accepted a config without a schema")
	}
}

// TestNoCorpus: before the first publish, Execute refuses with ErrNoCorpus
// and /healthz reports 503.
func TestNoCorpus(t *testing.T) {
	srv := newServer(t, serve.Config{})
	if _, err := srv.Execute(t.Context(), serve.Request{Query: changQuery}); !errors.Is(err, serve.ErrNoCorpus) {
		t.Fatalf("Execute = %v, want ErrNoCorpus", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz = %d before publish, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/query?q=" + url.QueryEscape(changQuery))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/query = %d before publish, want 503", resp.StatusCode)
	}
}

// TestPublishEpochs: every successful publish bumps the epoch by one, and
// queries answer from the generation current when they were admitted.
func TestPublishEpochs(t *testing.T) {
	srv := newServer(t, serve.Config{})
	for want := uint64(1); want <= 3; want++ {
		epoch, err := srv.Publish(sampleFiles(int(want) + 1))
		if err != nil {
			t.Fatal(err)
		}
		if epoch != want {
			t.Fatalf("publish %d: epoch = %d", want, epoch)
		}
		resp, err := srv.Execute(t.Context(), serve.Request{Query: changQuery})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Epoch != want || resp.Files != int(want)+1 || len(resp.Hits) != int(want)+1 {
			t.Fatalf("epoch %d: got epoch=%d files=%d hits=%d", want, resp.Epoch, resp.Files, len(resp.Hits))
		}
		if !resp.Complete() {
			t.Fatalf("epoch %d: degraded answer on a healthy corpus: %v", want, resp.DegradedError())
		}
	}
}

// TestPublishReportsEveryFile is the AddAll-style error-reporting contract
// at the daemon: when several files fail to index, the publish error
// attributes every one of them, not just the first, and the previous
// generation keeps serving untouched.
func TestPublishReportsEveryFile(t *testing.T) {
	srv := newServer(t, serve.Config{})
	if _, err := srv.Publish(sampleFiles(2)); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Configure(faultinject.IndexBuild + "=error"); err != nil {
		t.Fatal(err)
	}
	_, err := srv.Publish(sampleFiles(5)) // doc-02 .. doc-04 are new
	faultinject.Reset()
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("publish error %v does not wrap ErrInjected", err)
	}
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("doc-%02d.bib", i)
		if got, want := strings.Contains(err.Error(), name), i >= 2; got != want {
			t.Errorf("publish error names %s: %v, want %v: %v", name, got, want, err)
		}
	}
	// The failed publish must be invisible: old epoch, old answers.
	if got := srv.Epoch(); got != 1 {
		t.Fatalf("failed publish moved the epoch to %d", got)
	}
	resp, err := srv.Execute(t.Context(), serve.Request{Query: changQuery})
	if err != nil || !resp.Complete() || len(resp.Hits) != 2 {
		t.Fatalf("previous generation no longer serves: hits=%d err=%v", len(resp.Hits), err)
	}
}

// TestPublishFaultKeepsOldGeneration: a fault in the step after the build,
// error or panic, fails the publish with its typed cause and swaps nothing
// in — not on the first publish, and not on a later one, whose previous
// generation keeps serving.
func TestPublishFaultKeepsOldGeneration(t *testing.T) {
	srv := newServer(t, serve.Config{})
	for _, c := range []struct {
		kind string
		want error
	}{
		{"error", faultinject.ErrInjected},
		{"panic", qof.ErrInternal},
	} {
		if err := faultinject.Configure(faultinject.ServePublish + "=" + c.kind); err != nil {
			t.Fatal(err)
		}
		_, err := srv.Publish(sampleFiles(3))
		faultinject.Reset()
		if !errors.Is(err, c.want) {
			t.Fatalf("%s: publish error = %v, want %v", c.kind, err, c.want)
		}
		if got := srv.Epoch(); got != 0 {
			t.Fatalf("%s: failed first publish set epoch %d", c.kind, got)
		}
		if _, err := srv.Execute(t.Context(), serve.Request{Query: changQuery}); !errors.Is(err, serve.ErrNoCorpus) {
			t.Fatalf("%s: a failed first publish serves: %v", c.kind, err)
		}
	}
	if _, err := srv.Publish(sampleFiles(3)); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Configure(faultinject.ServePublish + "=error"); err != nil {
		t.Fatal(err)
	}
	_, err := srv.Publish(sampleFiles(4))
	faultinject.Reset()
	if !errors.Is(err, faultinject.ErrInjected) || srv.Epoch() != 1 {
		t.Fatalf("faulted second publish: err=%v epoch=%d, want ErrInjected at epoch 1", err, srv.Epoch())
	}
	resp, err := srv.Execute(t.Context(), serve.Request{Query: changQuery})
	if err != nil || !resp.Complete() || len(resp.Hits) != 3 {
		t.Fatalf("previous generation no longer serves: hits=%d err=%v", len(resp.Hits), err)
	}
}

// TestExecuteBadQuery: a parse error is rejected before admission, typed
// ErrBadQuery, mapped to 400 over HTTP.
func TestExecuteBadQuery(t *testing.T) {
	srv := newServer(t, serve.Config{})
	if _, err := srv.Publish(sampleFiles(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Execute(t.Context(), serve.Request{Query: "SELECT FROM WHERE"}); !errors.Is(err, serve.ErrBadQuery) {
		t.Fatalf("Execute = %v, want ErrBadQuery", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"query":"SELECT FROM"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query = %d, want 400", resp.StatusCode)
	}
	if got := srv.Metrics().BadQueryTotal; got != 2 {
		t.Fatalf("bad_query_total = %d, want 2", got)
	}
}

// TestTenantTableIsBounded: tenant names come from clients, so the
// metrics table keeps at most 1 024 of them and counts every later name
// under one overflow entry, and a name over 256 bytes is refused with 400
// before anything counts it as a tenant's.
func TestTenantTableIsBounded(t *testing.T) {
	const tenantCap, extra = 1024, 40 // serve's maxTenants
	srv := newServer(t, serve.Config{})
	if _, err := srv.Publish(sampleFiles(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tenantCap+extra; i++ {
		if _, err := srv.Execute(t.Context(), serve.Request{Query: changQuery, Tenant: fmt.Sprintf("tenant-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	m := srv.Metrics()
	if len(m.Tenants) > tenantCap+1 {
		t.Errorf("%d tenants submitted, %d entries in the table: want at most %d", tenantCap+extra, len(m.Tenants), tenantCap+1)
	}
	var sum uint64
	for _, tm := range m.Tenants {
		sum += tm.Queries
	}
	if sum != tenantCap+extra {
		t.Errorf("per-tenant queries sum to %d, want the %d submissions", sum, tenantCap+extra)
	}

	long := strings.Repeat("t", 257)
	if _, err := srv.Execute(t.Context(), serve.Request{Query: changQuery, Tenant: long}); !errors.Is(err, serve.ErrBadQuery) {
		t.Fatalf("Execute with a %d-byte tenant = %v, want ErrBadQuery", len(long), err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/query?q="+url.QueryEscape(changQuery), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Qofd-Tenant", long)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("a %d-byte X-Qofd-Tenant = %d, want 400", len(long), resp.StatusCode)
	}
	if got := srv.Metrics().QueriesTotal; got != tenantCap+extra {
		t.Errorf("queries_total = %d after the refused tenants, want %d", got, tenantCap+extra)
	}
}

// TestHostileQueryRefused: query text nested past the parsers' limit — 400 KB
// of NOTs fit under the 1 MiB body cap, and used to cost seconds of
// normalizing per file — is a bad query: HTTP 400, counted in bad_query_total,
// and refused by the validation parse, so it is never admitted and no
// corpus or engine sees it. What is asserted is where it stopped, not how
// fast.
func TestHostileQueryRefused(t *testing.T) {
	srv := newServer(t, serve.Config{})
	if _, err := srv.Publish(sampleFiles(4)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for name, where := range map[string]string{
		"not":   strings.Repeat("NOT ", 100000) + `r.Key = "k"`,
		"paren": strings.Repeat("(", 400000) + `r.Key = "k"`,
		"and":   `r.Key = "k"` + strings.Repeat(` AND r.Key = "k"`, 25000),
	} {
		body, err := json.Marshal(serve.QueryRequest{Query: "SELECT r FROM References r WHERE " + where})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "nests deeper than") {
			t.Errorf("%s: status %d, body %.120s; want 400 naming the nesting limit", name, resp.StatusCode, msg)
		}
	}
	m := srv.Metrics()
	if m.BadQueryTotal != 3 || m.QueriesTotal != 0 || len(m.Tenants) != 0 {
		t.Errorf("bad_query_total=%d queries_total=%d tenants=%v; want 3 refused and none admitted or attributed",
			m.BadQueryTotal, m.QueriesTotal, m.Tenants)
	}
	if _, err := srv.Execute(t.Context(), serve.Request{Query: changQuery}); err != nil {
		t.Fatalf("a well-formed query after the hostile ones: %v", err)
	}
}

// TestResponseHasContentLength: a response is encoded whole before it is
// written, so it carries its length instead of going out chunked.
func TestResponseHasContentLength(t *testing.T) {
	srv := newServer(t, serve.Config{})
	if _, err := srv.Publish(sampleFiles(2)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, path := range []string{"/query?q=" + url.QueryEscape(changQuery), "/query?q=SELECT", "/healthz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, Transfer-Encoding %v, body of %d bytes",
				path, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}
}

// TestHTTPDecoding exercises the request decoder's surface: GET parameter
// mapping, the tenant header fallback, empty queries, bad numbers, and
// unsupported methods.
func TestHTTPDecoding(t *testing.T) {
	srv := newServer(t, serve.Config{})
	if _, err := srv.Publish(sampleFiles(2)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// GET with parameters answers like POST.
	resp, err := http.Get(ts.URL + "/query?q=" + url.QueryEscape(changQuery) + "&tenant=alice&timeout_ms=5000")
	if err != nil {
		t.Fatal(err)
	}
	var env serve.Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(env.Hits) != 2 {
		t.Fatalf("GET query: status=%d hits=%d", resp.StatusCode, len(env.Hits))
	}

	// The tenant header is the fallback when the body names none.
	body, err := json.Marshal(serve.QueryRequest{Query: changQuery})
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/query", strings.NewReader(string(body)))
	req.Header.Set("X-Qofd-Tenant", "header-tenant")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("header-tenant query = %d", resp.StatusCode)
	}
	if _, ok := srv.Metrics().Tenants["header-tenant"]; !ok {
		t.Error("X-Qofd-Tenant header did not attribute the query")
	}

	for _, c := range []struct {
		method, url, body string
		want              int
	}{
		{http.MethodGet, "/query", "", http.StatusBadRequest},                                                      // empty query
		{http.MethodGet, "/query?q=" + url.QueryEscape(changQuery) + "&timeout_ms=abc", "", http.StatusBadRequest}, // bad number
		{http.MethodPost, "/query", "{not json", http.StatusBadRequest},                                            // bad body
		{http.MethodDelete, "/query", "", http.StatusMethodNotAllowed},                                             // bad method
		{http.MethodGet, "/reload", "", http.StatusNotFound},                                                       // no Reload configured
	} {
		var body io.Reader
		if c.body != "" {
			body = strings.NewReader(c.body)
		}
		req, _ := http.NewRequest(c.method, ts.URL+c.url, body)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %s = %d, want %d", c.method, c.url, resp.StatusCode, c.want)
		}
	}
}

// TestHTTPBodyTooLarge pins the 1 MiB cap on a POSTed request: a body of
// exactly 1 MiB is decoded and answered, one byte more is refused with 413
// and a message naming the limit rather than decoded truncated.
func TestHTTPBodyTooLarge(t *testing.T) {
	srv := newServer(t, serve.Config{})
	if _, err := srv.Publish(sampleFiles(2)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	query, err := json.Marshal(serve.QueryRequest{Query: changQuery})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		size int
		want int
	}{
		{1 << 20, http.StatusOK},
		{1<<20 + 1, http.StatusRequestEntityTooLarge},
	} {
		// JSON allows trailing whitespace, so the padded body is a valid
		// request of exactly c.size bytes.
		body := string(query) + strings.Repeat(" ", c.size-len(query))
		resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%d-byte body = %d %s, want %d", c.size, resp.StatusCode, msg, c.want)
		}
		if c.want == http.StatusRequestEntityTooLarge && !strings.Contains(string(msg), "1 MiB") {
			t.Errorf("413 body %s does not name the 1 MiB limit", msg)
		}
	}
}

// TestHTTPShed saturates a MaxInflight=1 server with a held query and
// asserts the second request is shed with 429 and the Retry-After hint.
func TestHTTPShed(t *testing.T) {
	srv := newServer(t, serve.Config{MaxInflight: 1, RetryAfter: 2 * time.Second})
	if _, err := srv.Publish(sampleFiles(2)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if err := faultinject.Configure(faultinject.CorpusFile + "=delay:400ms"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(ts.URL + "/query?q=" + url.QueryEscape(changQuery))
		if err == nil {
			resp.Body.Close()
		}
	}()
	// Wait until the held query is admitted, then submit the one to shed.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().AdmittedInflight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("held query never admitted")
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/query?q=" + url.QueryEscape(changQuery))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated query = %d, want 429", resp.StatusCode)
	}
	// The hint is jittered over [base, 1.5×base] = [2s, 3s].
	if got := resp.Header.Get("Retry-After"); got != "2" && got != "3" {
		t.Errorf("Retry-After = %q, want \"2\" or \"3\"", got)
	}
	wg.Wait()
	faultinject.Reset()

	m := srv.Metrics()
	if m.ShedTotal == 0 {
		t.Error("shed_total = 0 after a shed response")
	}
	// The server is immediately healthy again.
	resp, err = http.Get(ts.URL + "/query?q=" + url.QueryEscape(changQuery))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-shed query = %d, want 200", resp.StatusCode)
	}
}

// TestTenantHardCapShedsOnlyThatTenant: a capped tenant sheds at its bound
// while another tenant still gets in.
func TestTenantHardCapShedsOnlyThatTenant(t *testing.T) {
	srv := newServer(t, serve.Config{
		MaxInflight: 8,
		Tenants:     map[string]serve.Tenant{"capped": {MaxInflight: 1}},
	})
	if _, err := srv.Publish(sampleFiles(1)); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Configure(faultinject.CorpusFile + "=delay:300ms"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.Execute(t.Context(), serve.Request{Query: changQuery, Tenant: "capped"})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().AdmittedInflight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("held query never admitted")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := srv.Execute(t.Context(), serve.Request{Query: changQuery, Tenant: "capped"}); !errors.Is(err, serve.ErrShed) {
		t.Fatalf("capped tenant: err = %v, want ErrShed", err)
	}
	if _, err := srv.Execute(t.Context(), serve.Request{Query: changQuery, Tenant: "other"}); err != nil {
		t.Fatalf("other tenant shed with capacity free: %v", err)
	}
	wg.Wait()
	m := srv.Metrics()
	if m.Tenants["capped"].Shed != 1 {
		t.Errorf("capped tenant shed count = %d, want 1", m.Tenants["capped"].Shed)
	}
	if m.Tenants["other"].Shed != 0 {
		t.Errorf("other tenant shed count = %d, want 0", m.Tenants["other"].Shed)
	}
}

// TestReloadEndpoint: POST /reload pulls the new corpus through
// Config.Reload and publishes it as the next epoch; GET is rejected.
func TestReloadEndpoint(t *testing.T) {
	generation := 0
	srv := newServer(t, serve.Config{
		Reload: func(ctx context.Context) (map[string]string, error) {
			generation++
			return sampleFiles(generation + 1), nil
		},
	})
	if _, err := srv.Publish(sampleFiles(1)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/reload")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /reload = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /reload = %d", resp.StatusCode)
	}
	if got := srv.Epoch(); got != 2 {
		t.Fatalf("epoch after reload = %d, want 2", got)
	}
	if got := len(srv.Files()); got != 2 {
		t.Fatalf("files after reload = %d, want 2", got)
	}
}

// TestMetricsEndpoint spot-checks the counter plumbing end to end.
func TestMetricsEndpoint(t *testing.T) {
	srv := newServer(t, serve.Config{})
	if _, err := srv.Publish(sampleFiles(3)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := srv.Execute(t.Context(), serve.Request{Query: changQuery, Tenant: "m"}); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m serve.MetricsBody
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.QueriesTotal != 3 || m.OkTotal != 3 || m.ShedTotal != 0 {
		t.Fatalf("metrics = queries:%d ok:%d shed:%d, want 3/3/0", m.QueriesTotal, m.OkTotal, m.ShedTotal)
	}
	if m.Epoch != 1 || m.Files != 3 {
		t.Fatalf("metrics corpus = epoch:%d files:%d", m.Epoch, m.Files)
	}
	if m.Tenants["m"].Queries != 3 {
		t.Fatalf("tenant queries = %d, want 3", m.Tenants["m"].Queries)
	}
	if m.LatencyMs["p50"] <= 0 {
		t.Error("p50 latency missing after 3 queries")
	}
}
