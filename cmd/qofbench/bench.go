package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"qof/internal/engine"
	"qof/internal/index"
	"qof/internal/qgen"
	"qof/internal/xsql"
)

// The -json benchmark: for every qgen domain, run a generated repeated-query
// workload against two engines over the same instance — one with the
// cross-query result cache disabled (baseline) and one with it on — and
// report machine-readable throughput, allocation and cache-hit figures.

// benchReport is the top-level JSON document.
type benchReport struct {
	Quick   bool          `json:"quick"`
	Rounds  int           `json:"rounds"`
	Queries int           `json:"queries_per_domain"`
	Domains []domainBench `json:"domains"`
	// Serving storms the sharded HTTP daemon far past its admission limit
	// and reports latency quantiles, shed rate and leak accounting.
	Serving servingBench `json:"serving"`
	// Tail compares tail latency with and without hedged requests when one
	// replica's primary attempts intermittently stall.
	Tail tailBench `json:"tail"`
}

// benchLimitK is the LIMIT used for the limit_k_ops_sec workload.
const benchLimitK = 10

type domainBench struct {
	Name     string    `json:"name"`
	Baseline benchPass `json:"baseline"`
	Cached   benchPass `json:"cached"`
	// Speedup is cached ops/sec over baseline ops/sec for the repeated
	// workload; the result cache's contribution. SpeedupRegression flags a
	// domain where caching made the workload slower — the miss path costs
	// more than the hits recover — so regressions are machine-checkable
	// from the JSON instead of eyeballed.
	Speedup           float64 `json:"speedup"`
	SpeedupRegression bool    `json:"speedup_regression"`
	// LimitKOpsSec is the baseline workload rerun with LIMIT benchLimitK on
	// every query, with the result cache off, so every run streams (with
	// it on, a repeat would be a cache hit from its third run). Comparing against
	// Baseline.OpsPerSec shows what early termination buys per domain.
	LimitKOpsSec float64 `json:"limit_k_ops_sec"`
	// CancelLatencyUsMax is the worst observed time, in microseconds, for
	// ExecuteContext to return after being handed an already-canceled
	// context — an upper bound on how long the engine's cooperative poll
	// points leave a dead query running. CancelLatencyUsAvg is the mean.
	CancelLatencyUsMax float64 `json:"cancel_latency_us_max"`
	CancelLatencyUsAvg float64 `json:"cancel_latency_us_avg"`
}

type benchPass struct {
	// roundOps is the per-round throughput series behind OpsPerSec, kept
	// for paired speedup ratios; not part of the report.
	roundOps []float64

	OpsPerSec          float64 `json:"ops_per_sec"`
	AllocsPerOp        float64 `json:"allocs_per_op"`
	PlanCacheHitRate   float64 `json:"plan_cache_hit_rate"`
	ResultCacheHitRate float64 `json:"result_cache_hit_rate"`
	// PeakBytes is the largest per-query Stats.PeakBytes observed during
	// the timed rounds: the high-water mark of region-buffer memory the
	// worst query in the workload needs.
	PeakBytes int `json:"peak_bytes"`
}

// runJSONBench writes the benchmark report to path. quick shrinks the
// workload for CI smoke runs.
func runJSONBench(path string, quick bool) error {
	rounds, nQueries := 20, 60
	if quick {
		rounds, nQueries = 6, 25
	}
	report := benchReport{Quick: quick, Rounds: rounds, Queries: nQueries}
	for _, d := range qgen.Domains(1994) {
		queries := benchQueries(d, nQueries)
		if len(queries) == 0 {
			return fmt.Errorf("domain %s: no runnable queries generated", d.Name)
		}
		spec := d.Specs[0]
		in, _, err := d.Cat.Grammar.BuildInstance(d.Doc, spec)
		if err != nil {
			return fmt.Errorf("domain %s: %w", d.Name, err)
		}
		db := domainBench{Name: d.Name}
		baseline := engine.New(d.Cat, in)
		baseline.DisableResultCache()
		cached := engine.New(d.Cat, in)
		passes, err := runPaired([]*engine.Engine{baseline, cached}, queries, rounds)
		if err != nil {
			return fmt.Errorf("domain %s: %w", d.Name, err)
		}
		db.Baseline, db.Cached = passes[0], passes[1]
		db.Speedup = pairedSpeedup(db.Baseline.roundOps, db.Cached.roundOps)
		db.SpeedupRegression = db.Speedup > 0 && db.Speedup < 1
		db.LimitKOpsSec, err = limitPass(d, in, queries, rounds)
		if err != nil {
			return fmt.Errorf("domain %s: %w", d.Name, err)
		}
		db.CancelLatencyUsMax, db.CancelLatencyUsAvg, err = cancelLatency(d, in, queries)
		if err != nil {
			return fmt.Errorf("domain %s: %w", d.Name, err)
		}
		report.Domains = append(report.Domains, db)
	}
	serving, err := runServing(quick)
	if err != nil {
		return fmt.Errorf("serving: %w", err)
	}
	report.Serving = serving
	report.Tail, err = runTail(quick)
	if err != nil {
		return fmt.Errorf("tail: %w", err)
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// limitPass reruns the workload with LIMIT benchLimitK on every query,
// against a fresh engine with the result cache off, and returns
// ops/sec. The LIMIT overrides any the generated query carried.
func limitPass(d *qgen.Domain, in *index.Instance, queries []*xsql.Query, rounds int) (float64, error) {
	limited := make([]*xsql.Query, len(queries))
	for i, q := range queries {
		limited[i] = q.WithLimit(benchLimitK)
	}
	eng := engine.New(d.Cat, in)
	eng.DisableResultCache()
	pass, err := runPass(eng, limited, rounds)
	if err != nil {
		return 0, err
	}
	return pass.OpsPerSec, nil
}

// cancelLatency measures, per domain, how quickly ExecuteContext abandons
// work once its context is canceled: every workload query runs on a fresh
// engine under an already-canceled context, and the wall time until the
// call returns is the cancellation latency. A pre-canceled context is the
// worst and most reproducible case — every poll point fires on its first
// check, so the measurement reflects poll granularity (including the
// uncancelable compile prefix), not scheduler timing.
func cancelLatency(d *qgen.Domain, in *index.Instance, queries []*xsql.Query) (maxUs, avgUs float64, err error) {
	eng := engine.New(d.Cat, in)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var total float64
	for _, q := range queries {
		start := time.Now()
		_, qerr := eng.ExecuteContext(ctx, q, engine.Limits{})
		us := float64(time.Since(start).Nanoseconds()) / 1e3
		if qerr != nil && !errors.Is(qerr, context.Canceled) {
			return 0, 0, fmt.Errorf("canceled run of %q: unexpected error: %w", q, qerr)
		}
		if us > maxUs {
			maxUs = us
		}
		total += us
	}
	if len(queries) > 0 {
		avgUs = total / float64(len(queries))
	}
	return maxUs, avgUs, nil
}

// benchQueries generates n distinct queries the domain's engine accepts
// (qgen deliberately emits some queries with unindexed names; those error
// identically on every engine, so they carry no benchmark signal).
func benchQueries(d *qgen.Domain, n int) []*xsql.Query {
	g := qgen.NewQueryGen(d, 7)
	in, _, err := d.Cat.Grammar.BuildInstance(d.Doc, d.Specs[0])
	if err != nil {
		return nil
	}
	probe := engine.New(d.Cat, in)
	var out []*xsql.Query
	for tries := 0; len(out) < n && tries < 20*n; tries++ {
		q := g.Query()
		if _, err := probe.Execute(q); err != nil {
			continue
		}
		out = append(out, q)
	}
	return out
}

// runPaired measures several engines over the same workload with their
// rounds interleaved — engine A round 1, engine B round 1, engine A round 2,
// … — so scheduler and frequency drift hits every engine alike. Sequential
// whole-pass timing made the per-domain speedups swing ±15% run to run,
// drowning the real cache effect.
func runPaired(engines []*engine.Engine, queries []*xsql.Query, rounds int) ([]benchPass, error) {
	// Warm-up round per engine: fault in lazy index structures (universe,
	// sistring array) so the timed rounds measure steady-state serving.
	for _, eng := range engines {
		for _, q := range queries {
			if _, err := eng.Execute(q); err != nil {
				return nil, err
			}
		}
	}
	type acc struct {
		roundOps []float64 // per-round throughput
		ops      int
		planHits int // executions that found their plan compiled
		mallocs  uint64
		peak     int
	}
	accs := make([]acc, len(engines))
	var ms0, ms1 runtime.MemStats
	for r := 0; r < rounds; r++ {
		for k := range engines {
			// Alternate the leg order every round so any cost of going
			// first (cold branch predictors, a pending GC) is split evenly.
			i := k
			if r%2 == 1 {
				i = len(engines) - 1 - k
			}
			eng := engines[i]
			a := &accs[i]
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			// Several sweeps per timed round: the round must be long enough
			// that a few milliseconds of preemption by a noisy neighbour
			// cannot swing its throughput.
			const sweeps = 3
			for s := 0; s < sweeps; s++ {
				for _, q := range queries {
					res, err := eng.Execute(q)
					if err != nil {
						return nil, err
					}
					if res.Stats.PeakBytes > a.peak {
						a.peak = res.Stats.PeakBytes
					}
					if res.Stats.PlanCached {
						a.planHits++
					}
					a.ops++
				}
			}
			if elapsed := time.Since(start); elapsed > 0 {
				a.roundOps = append(a.roundOps, float64(sweeps*len(queries))/elapsed.Seconds())
			}
			runtime.ReadMemStats(&ms1)
			a.mallocs += ms1.Mallocs - ms0.Mallocs
		}
	}
	passes := make([]benchPass, len(engines))
	for i, eng := range engines {
		a := accs[i]
		pass := benchPass{PeakBytes: a.peak, roundOps: a.roundOps}
		// Median over the rounds: a GC cycle or scheduler stall landing in
		// one leg's round must not decide a whole domain's speedup.
		pass.OpsPerSec = median(a.roundOps)
		pass.AllocsPerOp = float64(a.mallocs) / float64(a.ops)
		pass.PlanCacheHitRate = float64(a.planHits) / float64(a.ops)
		if rh, rm := eng.CacheCounters(); rh+rm > 0 {
			pass.ResultCacheHitRate = float64(rh) / float64(rh+rm)
		}
		passes[i] = pass
	}
	return passes, nil
}

// pairedSpeedup estimates cached-over-baseline throughput as the median of
// the per-round ratios. The rounds of the two engines are interleaved in
// time, so each ratio compares near-simultaneous measurements and slow
// drift (frequency scaling, a noisy neighbour) cancels; the median then
// discards rounds where a GC cycle landed in one leg.
func pairedSpeedup(base, cached []float64) float64 {
	n := min(len(base), len(cached))
	ratios := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if base[i] > 0 {
			ratios = append(ratios, cached[i]/base[i])
		}
	}
	return median(ratios)
}

// median returns the middle value (or midpoint of the middle pair) of xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// runPass executes the query list rounds times and measures throughput,
// allocations per query, and cache hit rates.
func runPass(eng *engine.Engine, queries []*xsql.Query, rounds int) (benchPass, error) {
	// Warm-up round: fault in lazy index structures (universe, sistring
	// array) so the timed rounds measure steady-state serving.
	for _, q := range queries {
		if _, err := eng.Execute(q); err != nil {
			return benchPass{}, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	ops, planHits, peak := 0, 0, 0
	for r := 0; r < rounds; r++ {
		for _, q := range queries {
			res, err := eng.Execute(q)
			if err != nil {
				return benchPass{}, err
			}
			if res.Stats.PeakBytes > peak {
				peak = res.Stats.PeakBytes
			}
			if res.Stats.PlanCached {
				planHits++
			}
			ops++
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)

	pass := benchPass{PeakBytes: peak}
	if elapsed > 0 {
		pass.OpsPerSec = float64(ops) / elapsed.Seconds()
	}
	pass.AllocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(ops)
	pass.PlanCacheHitRate = float64(planHits) / float64(ops)
	if rh, rm := eng.CacheCounters(); rh+rm > 0 {
		pass.ResultCacheHitRate = float64(rh) / float64(rh+rm)
	}
	return pass, nil
}
