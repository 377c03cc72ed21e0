package main

// The serving saturation benchmark: boot the sharded daemon in-process
// behind a real HTTP listener, storm it with concurrent clients well past
// MaxInflight, and report client-observed latency quantiles, throughput,
// the shed rate, and goroutine-leak accounting. The interesting claims are
// operational: under heavy oversubscription the daemon keeps latency for
// admitted queries bounded by shedding the excess (429 + Retry-After)
// instead of queueing, and a full storm leaks nothing.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qof"
	"qof/internal/qgen"
	"qof/internal/serve"
)

// servingBench is the saturation section of the JSON report.
type servingBench struct {
	Clients     int `json:"clients"`
	Shards      int `json:"shards"`
	Files       int `json:"files"`
	MaxInflight int `json:"max_inflight"`
	// Submitted = Ok + Shed; every storm request is accounted for.
	Submitted  int     `json:"submitted"`
	Ok         int     `json:"ok"`
	Shed       int     `json:"shed"`
	ShedRate   float64 `json:"shed_rate"`
	DurationMs float64 `json:"duration_ms"`
	// QPS counts completed (admitted) queries only.
	QPS float64 `json:"qps"`
	// Client-observed latency of successful queries, milliseconds.
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	// GoroutineLeak is goroutines after the storm drained minus before the
	// daemon existed; the acceptance bar is zero (small transients are
	// waited out before measuring).
	GoroutineLeak int `json:"goroutine_leak"`
}

const servingQuery = `SELECT r FROM References r WHERE r STARTS "Ch"`

// runServing executes the saturation storm: clients concurrent goroutines,
// each submitting requestsPerClient queries over HTTP. MaxInflight is kept
// far below the client count so admission control must shed.
func runServing(quick bool) (servingBench, error) {
	clients, perClient := 1000, 3
	if quick {
		clients, perClient = 200, 2
	}
	before := runtime.NumGoroutine()

	srv, err := serve.New(serve.Config{
		Schema:      qof.BibTeX(),
		Shards:      4,
		MaxInflight: 16,
		RetryAfter:  time.Second,
	})
	if err != nil {
		return servingBench{}, err
	}
	files := make(map[string]string)
	for i := 0; i < 8; i++ {
		d := qgen.BibTeX(int64(2026 + i))
		files[d.Doc.Name()] = d.Doc.Content()
	}
	if _, err := srv.Publish(files); err != nil {
		return servingBench{}, err
	}
	ts := httptest.NewServer(srv.Handler())
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        clients,
		MaxIdleConnsPerHost: clients,
	}}
	target := ts.URL + "/query?q=" + url.QueryEscape(servingQuery)

	b := servingBench{
		Clients: clients, Shards: 4, Files: len(files), MaxInflight: 16,
		Submitted: clients * perClient,
	}
	var ok, shed, other atomic.Int64
	latencies := make([]float64, clients*perClient) // ms; -1 = not a success
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				slot := c*perClient + r
				latencies[slot] = -1
				t0 := time.Now()
				resp, err := client.Get(target)
				if err != nil {
					other.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					latencies[slot] = float64(time.Since(t0).Nanoseconds()) / 1e6
					ok.Add(1)
				case http.StatusTooManyRequests:
					shed.Add(1)
				default:
					other.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	ts.Close()
	client.CloseIdleConnections()

	if n := other.Load(); n > 0 {
		return b, fmt.Errorf("%d storm requests neither served nor shed", n)
	}
	b.Ok, b.Shed = int(ok.Load()), int(shed.Load())
	b.ShedRate = float64(b.Shed) / float64(b.Submitted)
	b.DurationMs = float64(elapsed.Nanoseconds()) / 1e6
	if elapsed > 0 {
		b.QPS = float64(b.Ok) / elapsed.Seconds()
	}
	successes := latencies[:0]
	for _, l := range latencies {
		if l >= 0 {
			successes = append(successes, l)
		}
	}
	sort.Float64s(successes)
	b.P50Ms = quantileAt(successes, 0.50)
	b.P99Ms = quantileAt(successes, 0.99)
	b.P999Ms = quantileAt(successes, 0.999)

	// Let transient goroutines (keep-alives, handler tails) park before
	// taking the leak reading.
	deadline := time.Now().Add(10 * time.Second)
	leak := runtime.NumGoroutine() - before
	for leak > 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		leak = runtime.NumGoroutine() - before
	}
	if leak < 0 {
		leak = 0
	}
	b.GoroutineLeak = leak

	// The books must balance against the daemon's own counters.
	m := srv.Metrics()
	if int(m.OkTotal) != b.Ok || int(m.ShedTotal) != b.Shed {
		return b, fmt.Errorf("daemon counted ok=%d shed=%d, clients saw %d/%d",
			m.OkTotal, m.ShedTotal, b.Ok, b.Shed)
	}
	return b, nil
}

// quantileAt reads the q-quantile from an ascending slice.
func quantileAt(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
