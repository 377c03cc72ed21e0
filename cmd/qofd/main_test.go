package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"qof/internal/bibtex"
	"qof/internal/qgen"
)

// syncBuffer lets the test poll run's startup line while run keeps writing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var addrRe = regexp.MustCompile(`http://([0-9.:]+)`)

// startDaemon runs the daemon on an ephemeral port over the given files and
// returns its base URL; shutdown and error checking hook into t.Cleanup.
func startDaemon(t *testing.T, args []string) string {
	t.Helper()
	base, _ := startDaemonOutput(t, args)
	return base
}

// startDaemonOutput is startDaemon, also returning what the daemon prints.
func startDaemonOutput(t *testing.T, args []string) (string, *syncBuffer) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out := new(syncBuffer)
	done := make(chan error, 1)
	go func() { done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), out) }()
	t.Cleanup(func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("run returned %v after shutdown", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("daemon did not shut down")
		}
	})
	deadline := time.Now().Add(15 * time.Second)
	for {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			return "http://" + m[1], out
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited during startup: %v\noutput: %s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never printed its address; output: %s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func writeCorpus(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	for i := 0; i < n; i++ {
		p := filepath.Join(dir, "doc-"+string(rune('a'+i))+".bib")
		if err := os.WriteFile(p, []byte(bibtex.SampleEntry), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const daemonQuery = `SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`

// TestDaemonEndToEnd boots qofd over a directory corpus, queries it through
// the real HTTP listener, reloads after editing a file on disk, and shuts
// down cleanly on context cancellation.
func TestDaemonEndToEnd(t *testing.T) {
	dir := writeCorpus(t, 3)
	base := startDaemon(t, []string{"-domain", "bibtex", "-shards", "2", "-dir", dir})

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Epoch  uint64 `json:"epoch"`
		Files  int    `json:"files"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Epoch != 1 || health.Files != 3 {
		t.Fatalf("healthz = %+v", health)
	}

	resp, err = http.Get(base + "/query?q=" + url.QueryEscape(daemonQuery))
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Complete bool `json:"complete"`
		Hits     []struct {
			File string `json:"file"`
		} `json:"hits"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !env.Complete || len(env.Hits) != 3 {
		t.Fatalf("query: status=%d complete=%v hits=%d", resp.StatusCode, env.Complete, len(env.Hits))
	}

	// Add a fourth file on disk; /reload publishes it as epoch 2.
	if err := os.WriteFile(filepath.Join(dir, "doc-z.bib"), []byte(bibtex.SampleEntry), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(base+"/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: status=%d body=%s", resp.StatusCode, body)
	}
	resp, err = http.Get(base + "/query?q=" + url.QueryEscape(daemonQuery))
	if err != nil {
		t.Fatal(err)
	}
	var env2 struct {
		Epoch uint64 `json:"epoch"`
		Hits  []any  `json:"hits"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env2); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if env2.Epoch != 2 || len(env2.Hits) != 4 {
		t.Fatalf("post-reload query: epoch=%d hits=%d, want 2/4", env2.Epoch, len(env2.Hits))
	}
}

// TestDaemonPositionalFiles serves explicit file arguments.
func TestDaemonPositionalFiles(t *testing.T) {
	dir := writeCorpus(t, 2)
	base := startDaemon(t, []string{"-domain", "bibtex",
		filepath.Join(dir, "doc-a.bib"), filepath.Join(dir, "doc-b.bib")})
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Files int `json:"files"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.Files != 2 {
		t.Fatalf("metrics files=%d, want 2", m.Files)
	}
}

// TestDaemonReplicationFlags: -shards and -replicas are accepted and
// ignored. A daemon started with the benchmark child's flags answers every
// query with the envelope bytes of a default daemon over the same files,
// elapsed_us aside, and its /metrics reads the hedge and failover counters
// the benchmark child reports as 0.
func TestDaemonReplicationFlags(t *testing.T) {
	dir := t.TempDir()
	for i := int64(0); i < 4; i++ {
		d := qgen.BibTeX(1994 + i)
		if err := os.WriteFile(filepath.Join(dir, d.Doc.Name()), []byte(d.Doc.Content()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	plain := startDaemon(t, []string{"-domain", "bibtex", "-dir", dir})
	flagged := startDaemon(t, []string{"-domain", "bibtex", "-shards", "4", "-replicas", "2", "-dir", dir})
	envelope := func(base, query string) []byte {
		t.Helper()
		body, err := json.Marshal(map[string]string{"query": query})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v", query, resp.StatusCode, err)
		}
		env["elapsed_us"] = 0
		out, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	gen := qgen.NewQueryGen(qgen.BibTeX(1994), 733)
	for i := 0; i < 60; i++ {
		q := gen.Query().String()
		if got, want := envelope(flagged, q), envelope(plain, q); !bytes.Equal(got, want) {
			t.Fatalf("%s: -shards 4 -replicas 2 answers\n  %s\nwhere the default daemon answers\n  %s", q, got, want)
		}
	}

	resp, err := http.Get(flagged + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, name := range []string{"hedges_sent_total", "hedges_won_total", "failovers_total"} {
		if v, ok := m[name]; !ok || v != 0.0 {
			t.Errorf("/metrics %s = %v (present %v), want 0", name, v, ok)
		}
	}
	if m["queries_total"] != 60.0 {
		t.Errorf("/metrics queries_total = %v, want 60", m["queries_total"])
	}
}

// TestDaemonBadInvocations: flag and corpus errors fail fast with a clear
// message instead of starting a broken daemon.
func TestDaemonBadInvocations(t *testing.T) {
	dir := writeCorpus(t, 1)
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown domain", []string{"-domain", "nope", "-dir", dir}, "unknown domain"},
		{"no files", []string{"-domain", "bibtex"}, "usage"},
		{"both sources", []string{"-domain", "bibtex", "-dir", dir, "extra.bib"}, "usage"},
		{"missing file", []string{"-domain", "bibtex", "no-such-file.bib"}, "no-such-file"},
		{"empty dir", []string{"-domain", "bibtex", "-dir", t.TempDir()}, "no files"},
		// Flags of the two execution modes that no longer exist are unknown
		// flags, not accepted and ignored.
		{"-shared", []string{"-shared", "-domain", "bibtex", "-dir", dir}, "flag provided but not defined: -shared"},
		{"-materializing", []string{"-materializing", "-domain", "bibtex", "-dir", dir}, "flag provided but not defined: -materializing"},
		// So are the flags of replication, hedging, breakers and shard
		// deadlines: the daemon serves one corpus.
		{"-hedge-after", []string{"-hedge-after", "5ms", "-domain", "bibtex", "-dir", dir}, "flag provided but not defined: -hedge-after"},
		{"-breaker-threshold", []string{"-breaker-threshold", "3", "-domain", "bibtex", "-dir", dir}, "flag provided but not defined: -breaker-threshold"},
		{"-breaker-cooldown", []string{"-breaker-cooldown", "1s", "-domain", "bibtex", "-dir", dir}, "flag provided but not defined: -breaker-cooldown"},
		{"-shard-timeout", []string{"-shard-timeout", "1s", "-domain", "bibtex", "-dir", dir}, "flag provided but not defined: -shard-timeout"},
	} {
		err := run(context.Background(), c.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
}

var pprofRe = regexp.MustCompile(`pprof on http://([0-9.:]+)/debug/pprof/`)

// debugAddrOf waits for the daemon's pprof line and returns the address in it.
func debugAddrOf(t *testing.T, out *syncBuffer) string {
	t.Helper()
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if m := pprofRe.FindStringSubmatch(out.String()); m != nil {
			return m[1]
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never printed its pprof address; output: %s", out.String())
		}
	}
}

// TestDaemonDebugAddr: -debug-addr serves pprof on its own listener and on
// no other; without the flag nothing serves it.
func TestDaemonDebugAddr(t *testing.T) {
	dir := writeCorpus(t, 1)
	base, out := startDaemonOutput(t, []string{"-domain", "bibtex", "-debug-addr", "127.0.0.1:0", "-dir", dir})
	debug := "http://" + debugAddrOf(t, out) + "/debug/pprof/"
	status := func(url string) int {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status(debug + "goroutine?debug=1"); got != http.StatusOK {
		t.Errorf("pprof goroutine profile on the debug address: status %d", got)
	}
	if got := status(base + "/debug/pprof/"); got != http.StatusNotFound {
		t.Errorf("pprof on the query address: status %d, want 404", got)
	}
	if got := status(strings.TrimSuffix(debug, "/debug/pprof/") + "/query?q=" + url.QueryEscape(daemonQuery)); got != http.StatusNotFound {
		t.Errorf("/query on the debug address: status %d, want 404", got)
	}

	plain := startDaemon(t, []string{"-domain", "bibtex", "-dir", dir})
	if got := status(plain + "/debug/pprof/"); got != http.StatusNotFound {
		t.Errorf("pprof without -debug-addr: status %d, want 404", got)
	}
}

// TestDaemonSlowClient: a connection that dribbles half a request line — a
// byte every half second, never the end of it — is closed by the daemon once
// the header timeout is up, on the query address and on the debug one, while
// a well-formed /query sent beside it is answered; a header block past the
// limit is refused with 431.
func TestDaemonSlowClient(t *testing.T) {
	dir := writeCorpus(t, 1)
	base, out := startDaemonOutput(t, []string{"-domain", "bibtex", "-debug-addr", "127.0.0.1:0", "-dir", dir})
	debugAddr := debugAddrOf(t, out)

	// dribble reports how long the server kept a never-finished request open.
	dribble := func(addr string) (time.Duration, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return 0, err
		}
		defer conn.Close()
		start := time.Now()
		go func() {
			for _, c := range []byte("GET /query?q=SELECT+r+FROM+References+r+WHERE+r.Key+%3D+%22nobody-ever-finishes-this") {
				if _, err := conn.Write([]byte{c}); err != nil {
					return
				}
				time.Sleep(500 * time.Millisecond)
			}
		}()
		conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second))
		_, err = io.Copy(io.Discard, conn) // returns nil on the server's close
		return time.Since(start), err
	}
	type held struct {
		addr string
		d    time.Duration
		err  error
	}
	results := make(chan held, 2)
	for _, addr := range []string{strings.TrimPrefix(base, "http://"), debugAddr} {
		go func() {
			d, err := dribble(addr)
			results <- held{addr, d, err}
		}()
	}

	// Beside the slow connections the daemon answers.
	time.Sleep(100 * time.Millisecond)
	for i := 0; i < 3; i++ {
		resp, err := http.Get(base + "/query?q=" + url.QueryEscape(daemonQuery))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"complete":true`)) {
			t.Fatalf("query beside a slow client: status %d, body %s", resp.StatusCode, body)
		}
	}

	req, err := http.NewRequest(http.MethodGet, base+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Padding", strings.Repeat("x", 2*maxHeaderBytes))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
		t.Errorf("a %d-byte header: status %d, want 431", 2*maxHeaderBytes, resp.StatusCode)
	}

	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Errorf("%s: the dribbling connection ended with %v, want the server's close", r.addr, r.err)
		}
		if r.d < readHeaderTimeout-time.Second || r.d > readHeaderTimeout+3*time.Second {
			t.Errorf("%s: the dribbling connection was held %v, want the header timeout %v", r.addr, r.d, readHeaderTimeout)
		}
	}
}

// TestDaemonSlowBody: a POST whose body stalls halfway is answered 408 once
// the (shortened) body deadline passes, on /query and on /reload, and its
// connection is closed; a whole POST beside it is answered 200.
func TestDaemonSlowBody(t *testing.T) {
	const bound = 200 * time.Millisecond
	readBodyTimeout = bound
	t.Cleanup(func() { readBodyTimeout = bodyTimeout }) // runs after the daemon's shutdown
	base := startDaemon(t, []string{"-domain", "bibtex", "-dir", writeCorpus(t, 1)})
	body, err := json.Marshal(map[string]string{"query": daemonQuery})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/query", "/reload"} {
		conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: qofd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
			path, len(body), body[:len(body)/2])
		start := time.Now()
		conn.SetReadDeadline(start.Add(10 * time.Second))
		br := bufio.NewReader(conn)
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("%s: no answer to a stalled body: %v", path, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if waited := time.Since(start); resp.StatusCode != http.StatusRequestTimeout || waited < bound || waited > 10*bound {
			t.Errorf("%s: stalled body answered %d %s after %v, want 408 after about %v", path, resp.StatusCode, msg, waited, bound)
		}
		if _, err := br.ReadByte(); err != io.EOF || !resp.Close {
			t.Errorf("%s: the connection stayed open after a 408 (next read: %v)", path, err)
		}
	}
	resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(msg, []byte(`"complete":true`)) {
		t.Fatalf("a whole body: status %d, body %s", resp.StatusCode, msg)
	}
	// Read ahead of the handler, an oversized body is still refused whole.
	resp, err = http.Post(base+"/query", "application/json", strings.NewReader(strings.Repeat(" ", 1<<20+1)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("a body over 1 MiB: status %d, want 413", resp.StatusCode)
	}
}
