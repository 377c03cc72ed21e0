package serve_test

// Satellite stress suite, meant to run under -race: concurrent queries
// racing hot reloads, a cancel-storm of disconnecting HTTP clients, and
// shedding under saturation — each followed by goroutine-leak accounting
// and a health check.

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

	"qof/internal/algebra"
	"qof/internal/faultinject"
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

// TestStressReload runs a worker pool of queries against a 4-shard server
// while another goroutine republishes alternating corpus generations. Every
// answer must be complete and internally consistent with the single
// generation that served it: epoch parity determines the corpus version, so
// files and hit counts must match that version exactly — a query must never
// observe a half-swapped shard set.
func TestStressReload(t *testing.T) {
	base := runtime.NumGoroutine()
	srv := newServer(t, serve.Config{Shards: 4})
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
	srv := newServer(t, serve.Config{Shards: 2, MaxInflight: 128})
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

// TestStressHedgeLoserCleanup forces every query to hedge — primary
// attempts sleep on an injected delay while the hedge timer fires after
// 1ms — so each answer is produced by the secondary and each primary
// becomes a canceled loser still unwinding after its group returned.
// Afterwards the books must balance exactly: goroutine count back to
// base (no detached loser lives on) and the algebra layer's open-stream
// counter back to where it started (every loser's root iterator was
// closed, not abandoned mid-pipeline).
func TestStressHedgeLoserCleanup(t *testing.T) {
	base := runtime.NumGoroutine()
	baseStreams := algebra.OpenStreams()
	srv := newServer(t, serve.Config{Shards: 2, Replicas: 2, HedgeAfter: time.Millisecond})
	if _, err := srv.Publish(sampleFiles(6)); err != nil {
		t.Fatal(err)
	}
	// Only primary attempts (serve.shard) stall; hedges (serve.hedge) run
	// unimpeded and win every race.
	if err := faultinject.Configure(faultinject.ServeShard + "=delay:25ms"); err != nil {
		t.Fatal(err)
	}
	const storm = 24
	var wg sync.WaitGroup
	errc := make(chan error, storm)
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := srv.Execute(context.Background(), serve.Request{Query: changQuery})
			if err != nil {
				errc <- err
				return
			}
			if !resp.Complete() || len(resp.Hits) != 6 {
				errc <- fmt.Errorf("hedged answer: hits=%d degraded=%v, want 6 complete",
					len(resp.Hits), resp.DegradedError())
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	faultinject.Reset()

	m := srv.Metrics()
	if m.HedgesSent == 0 || m.HedgesWon == 0 {
		t.Fatalf("hedges sent=%d won=%d; the storm never raced", m.HedgesSent, m.HedgesWon)
	}
	// Losers are still sleeping on the injected delay when Execute returns;
	// they must all unwind without leaking a goroutine or an open iterator.
	waitGoroutines(t, base)
	deadline := time.Now().Add(5 * time.Second)
	for algebra.OpenStreams() != baseStreams {
		if time.Now().After(deadline) {
			t.Fatalf("open streams = %d after storm, started with %d: hedge losers leaked iterators",
				algebra.OpenStreams(), baseStreams)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Canceled losers must not have been booked as faults.
	for sh := 0; sh < 2; sh++ {
		if st := srv.BreakerState(sh); st != "closed" {
			t.Errorf("breaker %d = %s after hedge storm, want closed", sh, st)
		}
	}
}

// TestStressShedding saturates a small server far past MaxInflight and
// checks the books afterwards: every submission either completed or was
// shed (the counts add up), a nonzero number were shed, and no capacity or
// goroutines leaked.
func TestStressShedding(t *testing.T) {
	base := runtime.NumGoroutine()
	srv := newServer(t, serve.Config{MaxInflight: 4})
	if _, err := srv.Publish(sampleFiles(2)); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Configure(faultinject.ServeShard + "=delay:20ms"); err != nil {
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
