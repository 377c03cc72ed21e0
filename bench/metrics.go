package main

// The metric registry: every name the benchmark emits, with its unit, its
// direction and — for end-to-end metrics — the regression bound. It mirrors
// BENCHMARK.json; TestBenchmarkJSONMatchesRegistry keeps the two equal.

import (
	"fmt"
	"sort"
)

// The two directions a metric can be better in.
const (
	lower  = "lower"
	higher = "higher"
)

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the numbers a user of the system sees, the same on every
// workload, measured with tracing off: the list BENCHMARK.json carries and
// the driver gates. The bounds are as tight as the run-to-run spread of single
// runs on the machine this was built on allows (see README.md).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "qps", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "cpu_ms_per_query", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "mem_mb", Unit: "MB", Better: lower, Bound: 0.05},
}

// libraryTail is the sixth: the p99 of every latency in the window, on the
// library workloads only. A daemon tail is whatever the worst few stalls of
// the machine made it (three identical runs: 33, 228, 267 ms), so daemon_open
// has none and BENCHMARK.json, whose list holds for every workload, cannot
// carry it; the daemon's tail is the per-layer serve.http_p99_ms. error_rate
// is the seventh: the result line's failed/attempted, 0 on every valid run,
// which the contract also keeps out of the list. -compare gates both.
var libraryTail = metricDef{Name: "p99_ms", Unit: "ms", Better: lower, Bound: 0.25}

// gated is what -compare holds a result file to, beside error_rate.
var gated = append(append([]metricDef(nil), endToEnd...), libraryTail)

// perLayer are single-layer numbers from the traced run; none is gated.
var perLayer = []metricDef{
	{Name: "xsql.parse_us", Unit: "us", Better: lower},
	{Name: "compile.compile_us", Unit: "us", Better: lower},
	{Name: "optimizer.optimize_us", Unit: "us", Better: lower},
	{Name: "compile.rewrites_per_query", Unit: "count", Better: higher},
	{Name: "compile.exact_plan_share", Unit: "ratio", Better: higher},
	{Name: "engine.plan_cache_hit_rate", Unit: "ratio", Better: higher},

	{Name: "algebra.stream_us", Unit: "us", Better: lower},
	{Name: "algebra.first_row_us", Unit: "us", Better: lower},
	{Name: "algebra.ops_per_query", Unit: "count", Better: lower},
	{Name: "algebra.direct_ops_per_query", Unit: "count", Better: lower},
	{Name: "algebra.regions_touched_per_query", Unit: "count", Better: lower},
	{Name: "algebra.short_circuits_per_kq", Unit: "count", Better: higher},
	{Name: "engine.result_cache_hit_rate", Unit: "ratio", Better: higher},

	{Name: "region.including_ns_per_region", Unit: "ns", Better: lower},
	{Name: "region.included_ns_per_region", Unit: "ns", Better: lower},
	{Name: "region.direct_including_ns_per_region", Unit: "ns", Better: lower},
	{Name: "region.kernel_allocs_per_op", Unit: "count", Better: lower},

	{Name: "index.word_lookup_ns", Unit: "ns", Better: lower},
	{Name: "index.prefix_lookup_ns", Unit: "ns", Better: lower},
	{Name: "index.select_contains_ns_per_region", Unit: "ns", Better: lower},
	{Name: "index.bytes_per_doc_byte", Unit: "ratio", Better: lower},
	{Name: "index.word_index_build_s", Unit: "s", Better: lower},
	{Name: "index.save_ms", Unit: "ms", Better: lower},
	{Name: "index.load_ms", Unit: "ms", Better: lower},
	{Name: "grammar.build_instance_s", Unit: "s", Better: lower},
	{Name: "stats.collect_ms", Unit: "ms", Better: lower},

	{Name: "grammar.parse_as_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "grammar.parse_as_us_per_region", Unit: "us", Better: lower},
	{Name: "grammar.parse_allocs_per_region", Unit: "count", Better: lower},
	{Name: "engine.candidates_per_result", Unit: "ratio", Better: lower},
	{Name: "engine.parsed_bytes_per_query", Unit: "bytes", Better: lower},
	{Name: "engine.parsed_regions_per_query", Unit: "count", Better: lower},

	{Name: "engine.execute_us", Unit: "us", Better: lower},
	{Name: "engine.self_us", Unit: "us", Better: lower},
	{Name: "engine.allocs_per_query", Unit: "count", Better: lower},
	{Name: "engine.alloc_kb_per_query", Unit: "KB", Better: lower},
	{Name: "engine.index_only_share", Unit: "ratio", Better: higher},
	{Name: "engine.exact_share", Unit: "ratio", Better: higher},
	{Name: "engine.peak_bytes_max", Unit: "bytes", Better: lower},
	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: lower},
	{Name: "qof.file_self_us", Unit: "us", Better: lower},

	{Name: "qof.corpus_us", Unit: "us", Better: lower},
	{Name: "serve.execute_us", Unit: "us", Better: lower},
	{Name: "serve.tax_us", Unit: "us", Better: lower},
	{Name: "serve.http_tax_us", Unit: "us", Better: lower},
	{Name: "serve.encode_us", Unit: "us", Better: lower},
	{Name: "serve.envelope_bytes_per_query", Unit: "bytes", Better: lower},

	{Name: "serve.hedges_per_kq", Unit: "count", Better: lower},
	{Name: "serve.hedge_win_rate", Unit: "ratio", Better: higher},
	{Name: "serve.failovers_per_kq", Unit: "count", Better: lower},
	{Name: "serve.shed_rate", Unit: "ratio", Better: lower},
	{Name: "serve.degraded_rate", Unit: "ratio", Better: lower},
	{Name: "serve.http_p99_ms", Unit: "ms", Better: lower},
	{Name: "serve.http_p999_ms", Unit: "ms", Better: lower},
	{Name: "serve.late_p99_ms", Unit: "ms", Better: lower},
	{Name: "serve.publish_r1_s", Unit: "s", Better: lower},
	{Name: "serve.publish_r2_s", Unit: "s", Better: lower},
	{Name: "serve.heap_r1_mb", Unit: "MB", Better: lower},
	{Name: "serve.heap_r2_mb", Unit: "MB", Better: lower},
	{Name: "qofd.start_s", Unit: "s", Better: lower},
	{Name: "qofd.rss_mb", Unit: "MB", Better: lower},

	{Name: "scan.fullscan_ms", Unit: "ms", Better: lower},
	{Name: "engine.speedup_vs_fullscan", Unit: "ratio", Better: higher},
}

// measurement is one reported value.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the driver-facing outcome of one run; its JSON form is the
// last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]measurement `json:"metrics"`
}

// errorRate is the seventh end-to-end metric.
func (r result) errorRate() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// metricSet collects values against one list of definitions and refuses
// names the list does not have, so a typo cannot add a metric.
type metricSet struct {
	defs   map[string]metricDef
	values map[string]measurement
}

func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{defs: make(map[string]metricDef, len(defs)), values: make(map[string]measurement, len(defs))}
	for _, d := range defs {
		m.defs[d.Name] = d
	}
	return m
}

func (m *metricSet) set(name string, v float64) {
	d, ok := m.defs[name]
	if !ok {
		panic("bench: metric " + name + " is not in the registry")
	}
	m.values[name] = measurement{Value: v, Unit: d.Unit}
}

// missing lists the registered names that were never set.
func (m *metricSet) missing() []string {
	var out []string
	for name := range m.defs {
		if _, ok := m.values[name]; !ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

func (m *metricSet) finish() (map[string]measurement, error) {
	if miss := m.missing(); len(miss) > 0 {
		return nil, fmt.Errorf("bench: metrics never measured: %v", miss)
	}
	return m.values, nil
}

// ratio is a/b, and 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
