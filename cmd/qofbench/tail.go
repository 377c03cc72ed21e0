package main

// The tail-latency benchmark: one shard's primary attempts intermittently
// stall (an injected 40ms delay with 10% probability, the classic
// slow-machine tail), and the same workload runs twice against a
// two-replica daemon — once with hedging disabled and once with a 5ms
// hedge. Unhedged, every stall lands in the client's latency and the
// p999 sits at the full delay; hedged, the timer fires the secondary
// replica and the tail collapses to roughly the hedge delay. The
// committed acceptance bar is hedged p999 ≤ 50% of unhedged p999.

import (
	"context"
	"fmt"
	"sort"
	"time"

	"qof"
	"qof/internal/faultinject"
	"qof/internal/qgen"
	"qof/internal/serve"
)

// tailBench is the tail-latency section of the JSON report.
type tailBench struct {
	Shards      int     `json:"shards"`
	Replicas    int     `json:"replicas"`
	Files       int     `json:"files"`
	Queries     int     `json:"queries"`
	SlowShard   int     `json:"slow_shard"`
	SlowDelayMs float64 `json:"slow_delay_ms"`
	SlowProb    float64 `json:"slow_prob"`
	HedgeMs     float64 `json:"hedge_ms"`

	Unhedged tailLeg `json:"unhedged"`
	Hedged   tailLeg `json:"hedged"`
	// P999Ratio is hedged p999 over unhedged p999; the acceptance bar for
	// this experiment is ≤ 0.5.
	P999Ratio float64 `json:"p999_ratio"`
	// Hedge accounting from the hedged leg's daemon: the tail win must come
	// from hedges actually racing and winning, not from noise.
	HedgesSent uint64 `json:"hedges_sent"`
	HedgesWon  uint64 `json:"hedges_won"`
}

type tailLeg struct {
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
}

const (
	tailSlowDelay = 40 * time.Millisecond
	tailSlowProb  = 0.1
	tailHedge     = 5 * time.Millisecond
	tailQuery     = `SELECT r FROM References r WHERE r STARTS "Ch"`
)

// runTail executes both legs and computes the ratio. The slow shard is the
// primary of the workload's lexicographically first file, so it is
// guaranteed to own documents and its stalls are guaranteed to sit on the
// query's critical path.
func runTail(quick bool) (tailBench, error) {
	n := 2000
	if quick {
		n = 400
	}
	files := make(map[string]string)
	for i := 0; i < 8; i++ {
		d := qgen.BibTeX(int64(2026 + i))
		files[d.Doc.Name()] = d.Doc.Content()
	}
	first := ""
	for name := range files {
		if first == "" || name < first {
			first = name
		}
	}
	const shards = 4
	slow := serve.ShardOf(first, shards)

	b := tailBench{
		Shards: shards, Replicas: 2, Files: len(files), Queries: n,
		SlowShard:   slow,
		SlowDelayMs: float64(tailSlowDelay.Nanoseconds()) / 1e6,
		SlowProb:    tailSlowProb,
		HedgeMs:     float64(tailHedge.Nanoseconds()) / 1e6,
	}

	var err error
	b.Unhedged, _, err = tailLegRun(files, slow, -1, n)
	if err != nil {
		return b, fmt.Errorf("unhedged leg: %w", err)
	}
	var m serve.MetricsBody
	b.Hedged, m, err = tailLegRun(files, slow, tailHedge, n)
	if err != nil {
		return b, fmt.Errorf("hedged leg: %w", err)
	}
	b.HedgesSent, b.HedgesWon = m.HedgesSent, m.HedgesWon
	if b.Unhedged.P999Ms > 0 {
		b.P999Ratio = b.Hedged.P999Ms / b.Unhedged.P999Ms
	}
	return b, nil
}

// tailLegRun boots a fresh two-replica daemon, installs the seeded
// slow-shard fault (scoped to primary attempts on that shard, so hedges
// and failovers never stall), and drives the workload sequentially —
// each sample is one query's full scatter-gather, with no queueing noise.
func tailLegRun(files map[string]string, slow int, hedge time.Duration, n int) (tailLeg, serve.MetricsBody, error) {
	srv, err := serve.New(serve.Config{
		Schema:     qof.BibTeX(),
		Shards:     4,
		Replicas:   2,
		HedgeAfter: hedge,
	})
	if err != nil {
		return tailLeg{}, serve.MetricsBody{}, err
	}
	if _, err := srv.Publish(files); err != nil {
		return tailLeg{}, serve.MetricsBody{}, err
	}
	spec := fmt.Sprintf("%s#%d=delay:%s%%%g/1994", faultinject.ServeShard, slow, tailSlowDelay, tailSlowProb)
	if err := faultinject.Configure(spec); err != nil {
		return tailLeg{}, serve.MetricsBody{}, err
	}
	defer faultinject.Reset()

	latencies := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		resp, err := srv.Execute(context.Background(), serve.Request{Query: tailQuery})
		if err != nil {
			return tailLeg{}, serve.MetricsBody{}, err
		}
		if !resp.Complete() {
			return tailLeg{}, serve.MetricsBody{}, fmt.Errorf("query %d degraded: %v", i, resp.DegradedError())
		}
		latencies = append(latencies, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	sort.Float64s(latencies)
	return tailLeg{
		P50Ms:  quantileAt(latencies, 0.50),
		P99Ms:  quantileAt(latencies, 0.99),
		P999Ms: quantileAt(latencies, 0.999),
	}, srv.Metrics(), nil
}
