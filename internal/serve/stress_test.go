package serve_test

// Stress suite, meant to run under -race: concurrent queries racing hot
// reloads, a cancel-storm of disconnecting HTTP clients, shedding under
// saturation and the goroutines a query may use — each followed by
// goroutine-leak accounting and a health check.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qof/internal/faultinject"
	"qof/internal/qgen"
	"qof/internal/serve"
)

// waitGoroutines polls until the goroutine count returns to within slack of
// base (HTTP keep-alives and pool workers park asynchronously), failing
// after a timeout with a full stack dump.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d running, started with %d\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStressReload runs a worker pool of queries against a server while
// another goroutine republishes alternating corpus generations. Every
// answer must be complete and internally consistent with the single
// generation that served it: epoch parity determines the corpus version, so
// files and hit counts must match that version exactly — a query must never
// observe a half-swapped generation.
func TestStressReload(t *testing.T) {
	base := runtime.NumGoroutine()
	srv := newServer(t, serve.Config{})
	// Odd epochs serve v1 (3 files), even epochs v2 (5 files).
	v1, v2 := sampleFiles(3), sampleFiles(5)
	if _, err := srv.Publish(v1); err != nil {
		t.Fatal(err)
	}

	const publishes = 20
	var done atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				resp, err := srv.Execute(context.Background(), serve.Request{Query: changQuery})
				if err != nil {
					if !errors.Is(err, serve.ErrShed) {
						errc <- fmt.Errorf("query failed mid-reload: %w", err)
						return
					}
					continue
				}
				want := 3
				if resp.Epoch%2 == 0 {
					want = 5
				}
				if !resp.Complete() || resp.Files != want || len(resp.Hits) != want {
					errc <- fmt.Errorf("epoch %d: files=%d hits=%d degraded=%v, want %d complete",
						resp.Epoch, resp.Files, len(resp.Hits), resp.DegradedError(), want)
					return
				}
			}
		}()
	}
	for i := 0; i < publishes; i++ {
		files := v2
		if i%2 == 1 {
			files = v1
		}
		if _, err := srv.Publish(files); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	done.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if got := srv.Epoch(); got != publishes+1 {
		t.Errorf("epoch = %d after %d publishes, want %d", got, publishes, publishes+1)
	}
	waitGoroutines(t, base)
}

// TestStressCancelStorm fires a volley of HTTP queries whose clients
// disconnect almost immediately (per-file delays stretch each query so the
// cancels land mid-execution). The daemon must absorb the storm: no leaked
// goroutines, cancellations counted, and a clean answer afterwards.
func TestStressCancelStorm(t *testing.T) {
	base := runtime.NumGoroutine()
	srv := newServer(t, serve.Config{MaxInflight: 128})
	if _, err := srv.Publish(sampleFiles(6)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	if err := faultinject.Configure(faultinject.CorpusFile + "=delay:30ms"); err != nil {
		t.Fatal(err)
	}
	const storm = 40
	var wg sync.WaitGroup
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+i%10)*time.Millisecond)
			defer cancel()
			req, _ := http.NewRequestWithContext(ctx, http.MethodGet,
				ts.URL+"/query?q="+url.QueryEscape(changQuery), nil)
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(i)
	}
	wg.Wait()
	// Clients are gone but the server is still unwinding their queries;
	// drain before reading the books.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Metrics().AdmittedInflight > 0 {
		if time.Now().After(deadline) {
			t.Fatal("inflight queries never drained after the storm")
		}
		time.Sleep(5 * time.Millisecond)
	}
	faultinject.Reset()

	if got := srv.Metrics().CanceledTotal; got == 0 {
		t.Error("cancel storm registered no canceled queries")
	}
	// Healthy and leak-free afterwards.
	resp, err := srv.Execute(context.Background(), serve.Request{Query: changQuery})
	if err != nil || !resp.Complete() || len(resp.Hits) != 6 {
		t.Fatalf("post-storm query: hits=%d err=%v", len(resp.Hits), err)
	}
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	waitGoroutines(t, base)
	if got := srv.Metrics().AdmittedInflight; got != 0 {
		t.Errorf("admitted inflight = %d after storm, want 0", got)
	}
}

// TestStressShedding saturates a small server far past MaxInflight with
// queries a per-file delay holds in, and checks the books afterwards: every
// submission either completed or was shed (the counts add up), a nonzero
// number were shed, and no capacity or goroutines leaked.
func TestStressShedding(t *testing.T) {
	base := runtime.NumGoroutine()
	srv := newServer(t, serve.Config{MaxInflight: 4})
	if _, err := srv.Publish(sampleFiles(2)); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Configure(faultinject.CorpusFile + "=delay:20ms"); err != nil {
		t.Fatal(err)
	}
	const clients = 32
	var ok, shed atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", i%4)
			resp, err := srv.Execute(context.Background(), serve.Request{Query: changQuery, Tenant: tenant})
			switch {
			case errors.Is(err, serve.ErrShed):
				shed.Add(1)
			case err == nil && resp.Complete():
				ok.Add(1)
			default:
				t.Errorf("client %d: unexpected outcome: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	faultinject.Reset()

	if ok.Load()+shed.Load() != clients {
		t.Errorf("ok %d + shed %d != %d clients", ok.Load(), shed.Load(), clients)
	}
	if shed.Load() == 0 {
		t.Error("no submissions shed at 8x oversubscription")
	}
	if ok.Load() == 0 {
		t.Error("every submission shed; admission control served nothing")
	}
	m := srv.Metrics()
	if m.ShedTotal != shed.Load() || m.OkTotal != ok.Load() {
		t.Errorf("metrics ok=%d shed=%d, counted ok=%d shed=%d", m.OkTotal, m.ShedTotal, ok.Load(), shed.Load())
	}
	if m.AdmittedInflight != 0 || m.Inflight != 0 {
		t.Errorf("inflight admitted=%d executing=%d after drain, want 0/0", m.AdmittedInflight, m.Inflight)
	}
	waitGoroutines(t, base)
}

// TestStressShedBurst storms the daemon over HTTP with a burst of cheap,
// undelayed queries far above MaxInflight, with no failpoint holding them
// in. An admitted query runs to the end on its handler's goroutine, so only
// the yield after admission lets the rest of the burst reach admission and
// be shed rather than queue unseen: some must be shed, every submission is
// answered 200 or 429 and counted so by the daemon, and nothing leaks.
func TestStressShedBurst(t *testing.T) {
	base := runtime.NumGoroutine()
	srv := newServer(t, serve.Config{MaxInflight: 16})
	files := make(map[string]string)
	for i := 0; i < 8; i++ {
		d := qgen.BibTeX(int64(2026 + i))
		files[d.Doc.Name()] = d.Doc.Content()
	}
	if _, err := srv.Publish(files); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	const clients, perClient = 200, 2
	client := &http.Client{Transport: &http.Transport{MaxIdleConns: clients, MaxIdleConnsPerHost: clients}}
	target := ts.URL + "/query?q=" + url.QueryEscape(`SELECT r FROM References r WHERE r STARTS "Ch"`)
	var ok, shed, other atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				resp, err := client.Get(target)
				if err != nil {
					other.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					ok.Add(1)
				case http.StatusTooManyRequests:
					shed.Add(1)
				default:
					other.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	ts.Close()
	client.CloseIdleConnections()

	if ok.Load()+shed.Load() != clients*perClient || other.Load() != 0 {
		t.Errorf("ok %d + shed %d != %d submitted (%d neither)", ok.Load(), shed.Load(), clients*perClient, other.Load())
	}
	if shed.Load() == 0 {
		t.Errorf("a burst of %d clients never shed at MaxInflight 16", clients)
	}
	if ok.Load() == 0 {
		t.Error("the burst served nothing")
	}
	if m := srv.Metrics(); m.OkTotal != ok.Load() || m.ShedTotal != shed.Load() {
		t.Errorf("daemon counted ok=%d shed=%d, clients saw %d/%d", m.OkTotal, m.ShedTotal, ok.Load(), shed.Load())
	}
	t.Logf("%d submitted: %d ok, %d shed", clients*perClient, ok.Load(), shed.Load())
	waitGoroutines(t, base)
}

// TestPeakGoroutinesBounded: N clients querying a 16-file server at once
// never run more goroutines than the clients themselves, the helpers and a
// few the test and the runtime own: a query runs on its caller's goroutine
// and hands files only to idle helpers, and starts none of its own.
func TestPeakGoroutinesBounded(t *testing.T) {
	files := make(map[string]string, 16)
	for i := 0; i < 16; i++ {
		d := qgen.BibTeX(int64(100 + i))
		files[fmt.Sprintf("f%02d.bib", i)] = d.Doc.Content()
	}
	srv := newServer(t, serve.Config{})
	if _, err := srv.Publish(files); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		changQuery,
		`SELECT r.Key FROM References r WHERE r.Title CONTAINS "data"`,
		`SELECT r FROM References r WHERE NOT r.Authors.Name.Last_Name = "Chang"`,
	}
	const clients, perClient = 16, 20
	var (
		stop sync.WaitGroup
		done atomic.Bool
		peak atomic.Int64
	)
	stop.Add(1)
	go func() { // the sampler, counted in base
		defer stop.Done()
		for !done.Load() {
			if n := int64(runtime.NumGoroutine()); n > peak.Load() {
				peak.Store(n)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	base := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				q := queries[(c+i)%len(queries)]
				if _, err := srv.Execute(t.Context(), serve.Request{Query: q}); err != nil {
					t.Errorf("client %d: %s: %v", c, q, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	done.Store(true)
	stop.Wait()
	// The helpers started with the process and are in base already; the
	// bound counts them again, as GOMAXPROCS, in case a test grew them.
	const slack = 4
	if bound := base + clients + runtime.GOMAXPROCS(0) + slack; int(peak.Load()) > bound {
		t.Errorf("peak %d goroutines under %d clients, bound %d (base %d)", peak.Load(), clients, bound, base)
	}
}
