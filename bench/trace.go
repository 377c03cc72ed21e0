package main

// The traced run. Nothing inside the program records spans yet (ROADMAP
// item 4), so the bench measures each layer from outside: it replays sampled
// queries once per rung through that layer's public functions and records
// one span per call. The rungs, outermost first:
//
//	http          POST /query to the qofd child
//	serve.encode  json.Marshal(serve.NewEnvelope(resp))
//	serve         in-process serve.Server.Execute, configured like the child
//	qof.corpus    qof.Corpus.ExecuteContext over the same files
//	qof.file      qof.File.QueryContext per file, caches in workload state
//	xsql          xsql.Parse
//	engine        engine.Engine.ExecuteContext per file, caches in workload state
//	engine.cold   the same on an engine that has not seen the query: no cache helps
//	compile       compile.Catalog.CompileStats per file
//	optimizer     optimizer.OptimizeExpr + OrderOperands on each candidate expression
//	algebra       algebra.Evaluator.StreamEval of each VarPlan.Candidates
//	grammar       grammar.ParseAs + BuildValue over the candidates the engine parsed
//
// A span's parent is the rung that contains its layer in a real request, so
// a layer's self time is its rung minus the rungs it contains. Because the
// rungs are separate calls, a child is inside its parent by layer, not by
// timestamp.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"qof"
	"qof/internal/algebra"
	"qof/internal/bibtex"
	"qof/internal/compile"
	"qof/internal/engine"
	"qof/internal/grammar"
	"qof/internal/index"
	"qof/internal/serve"
	"qof/internal/stats"
	"qof/internal/text"
	"qof/internal/xsql"
)

// span is one call into one layer on behalf of one sampled query.
type span struct {
	Workload string `json:"workload"`
	QueryID  int    `json:"query_id"`
	Layer    string `json:"layer"`
	Parent   string `json:"parent"`
	StartNs  int64  `json:"start_ns"` // since the traced run began
	EndNs    int64  `json:"end_ns"`
}

// layerParent is the containment of layers in a real request; "" marks the
// root.
var layerParent = map[string]string{
	"http":         "",
	"serve.encode": "http",
	"serve":        "http",
	"qof.corpus":   "serve",
	"qof.file":     "qof.corpus",
	"xsql":         "qof.file",
	"engine":       "qof.file",
	"engine.cold":  "engine",
	"compile":      "engine.cold",
	"optimizer":    "compile",
	"algebra":      "engine.cold",
	"grammar":      "engine.cold",
}

// tracer holds spans in memory until the run ends.
type tracer struct {
	workload string
	start    time.Time
	spans    []span
	query    int
}

// call times fn as one span of the current query and returns its duration
// in microseconds.
func (t *tracer) call(layer string, fn func()) float64 {
	s := time.Since(t.start)
	fn()
	e := time.Since(t.start)
	t.spans = append(t.spans, span{Workload: t.workload, QueryID: t.query, Layer: layer, Parent: layerParent[layer], StartNs: int64(s), EndNs: int64(e)})
	return float64(e-s) / 1e3
}

// writeSpans appends the spans to w, one JSON object per line.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// unit is one file's stack below the corpus: the index instance and what
// the lower rungs call on it.
type unit struct {
	doc  *text.Document
	in   *index.Instance
	st   *stats.Stats
	ev   *algebra.Evaluator
	warm *engine.Engine
	cold *engine.Engine
	file *qof.File
}

// newColdEngine makes an engine that has seen no query, with the
// cross-query result cache off, so an execution does all its work.
func newColdEngine(cat *compile.Catalog, in *index.Instance) *engine.Engine {
	e := engine.New(cat, in)
	e.DisableResultCache()
	return e
}

// childConfig is qofd's configuration under `-domain bibtex -shards 4
// -replicas R` with every other flag at its default (cmd/qofd/main.go).
func childConfig(replicas int) serve.Config {
	return serve.Config{
		Schema:           qof.BibTeX(),
		Shards:           4,
		Replicas:         replicas,
		BreakerThreshold: 5,
		BreakerCooldown:  time.Second,
		Parallelism:      runtime.GOMAXPROCS(0),
		MaxInflight:      64,
		DefaultTimeout:   10 * time.Second,
		RetryAfter:       time.Second,
	}
}

// childWarm caps the traced run's warm-up of its child: a little more than
// the plan cache (64) and the result cache (256) hold together. It only cuts
// pools that overflow every cache and so leave the child as cold as before.
const childWarm = 400

// mallocs reads the cumulative heap allocation counters.
func mallocs() (count, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// gcCPU reads the cumulative GC and total CPU seconds of this process.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		return s[0].Value.Float64(), s[1].Value.Float64()
	}
	return 0, 0
}

func matches(got, want fingerprint) error {
	if got != want {
		return fmt.Errorf("fingerprint %v, want %v", got, want)
	}
	return nil
}

// runTraced produces every per-layer metric for one workload.
func runTraced(ctx context.Context, w *workload, cfg *config) (*outcome, error) {
	m := newMetricSet(perLayer)
	t := &tracer{workload: w.name, start: time.Now()}
	chk := &tally{}
	out := &outcome{}
	cat := bibtex.Catalog()
	schema := qof.BibTeX()

	// Build each file's stack, timing the stages set-up is made of.
	var buildS, collectMs float64
	units := make([]*unit, len(w.docs))
	for i, d := range w.docs {
		u := &unit{doc: text.NewDocument(d.name, d.content)}
		start := time.Now()
		in, _, err := cat.Grammar.BuildInstanceContext(ctx, u.doc, grammar.IndexSpec{Names: w.regions})
		if err != nil {
			return nil, fmt.Errorf("bench: indexing %s: %w", d.name, err)
		}
		buildS += time.Since(start).Seconds()
		start = time.Now()
		u.st = stats.Collect(in)
		collectMs += float64(time.Since(start)) / 1e6
		u.in = in
		u.ev = algebra.NewEvaluator(in)
		u.ev.CostStats = u.st
		u.warm = engine.New(cat, in)
		if u.file, err = schema.IndexContext(ctx, d.name, d.content, indexOptions(w.regions)...); err != nil {
			return nil, fmt.Errorf("bench: indexing %s: %w", d.name, err)
		}
		units[i] = u
	}
	m.set("grammar.build_instance_s", buildS)
	m.set("stats.collect_ms", collectMs)
	if err := probeIndex(units[0], w, cfg.seed, m); err != nil {
		return nil, err
	}
	probeRegion(units[0], m)

	// One pass over the pool through the Files: the warm-up the untraced
	// run gives its File, and every query's fingerprint.
	expected := make([]fingerprint, len(w.pool))
	for i, q := range w.pool {
		for _, u := range units {
			res, err := u.file.QueryContext(ctx, q.src)
			if err != nil {
				return nil, fmt.Errorf("bench: %s: %w", q.src, err)
			}
			expected[i].addResults(u.doc.Name(), res)
		}
	}
	var err error
	if out.oracle, err = verifyPool(ctx, w, cfg.sc, cfg.seed, expected); err != nil {
		return nil, err
	}
	if cfg.plantWrong {
		plant(expected)
	}
	// The upper rungs always index every non-terminal: qofd has no flag
	// for a partial index, and the three must be comparable.
	corpus, err := buildCorpus(ctx, w.docs, nil)
	if err != nil {
		return nil, fmt.Errorf("bench: indexing the corpus: %w", err)
	}
	srv, err := probePublish(ctx, w, m)
	if err != nil {
		return nil, err
	}

	stopProfile, err := startProfiles(cfg.profileDir, w.name)
	if err != nil {
		return nil, err
	}
	defer stopProfile() // error paths; the success path stops it after the ladder
	if err := replay(ctx, w, cfg, units, expected, chk, m); err != nil {
		return nil, err
	}

	bin, dir, cleanup, err := prepareDaemon(ctx, w, cfg)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	client := newClient()
	defer client.CloseIdleConnections()
	c, err := startChild(ctx, bin, dir, client)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	m.set("qofd.start_s", c.startS)
	bodies := requestBodies(w.pool)
	// Warm the child as the untraced run does, up to childWarm queries.
	for i := 0; i < len(w.pool) && i < childWarm; i++ {
		if _, err := httpQuery(ctx, client, c.url, bodies[i]); err != nil {
			return nil, fmt.Errorf("bench: warm-up: %s: %w", w.pool[i].src, err)
		}
	}

	lad := &ladder{
		ctx: ctx, w: w, cat: cat, units: units, corpus: corpus, srv: srv,
		client: client, url: c.url, bodies: bodies, expected: expected, t: t, chk: chk,
	}
	err = lad.run(cfg, m)
	stopProfile()
	if err != nil {
		return nil, err
	}

	// The open-loop leg: the same generator as daemon_open, over this
	// workload's order, for the tail, the lateness and the child's own
	// hedge, failover, shed and degrade counters.
	order, due := w.openSchedule(cfg.sc, cfg.seed, cfg.sc.openSeconds)
	st, err := driveOpenLoop(ctx, c, client, bodies, order, due, expected, cfg.logf)
	if err != nil {
		return nil, err
	}
	chk.attempted += st.attempted
	chk.failed += st.failed
	if chk.first == nil {
		chk.first = st.firstFailure
	}
	m.set("serve.http_p99_ms", quantile(st.latencyMs, 0.99))
	m.set("serve.http_p999_ms", quantile(st.latencyMs, 0.999))
	m.set("serve.late_p99_ms", quantile(st.lateMs, 0.99))
	cm, err := c.metrics(client)
	if err != nil {
		return nil, fmt.Errorf("bench: reading the child's /metrics: %w", err)
	}
	queries := float64(cm.QueriesTotal)
	m.set("serve.hedges_per_kq", 1000*ratio(float64(cm.HedgesSent), queries))
	m.set("serve.hedge_win_rate", ratio(float64(cm.HedgesWon), float64(cm.HedgesSent)))
	m.set("serve.failovers_per_kq", 1000*ratio(float64(cm.FailoversTotal), queries))
	m.set("serve.shed_rate", ratio(float64(cm.ShedTotal), queries))
	m.set("serve.degraded_rate", ratio(float64(cm.DegradedTotal), queries))
	rss, err := c.rssMB()
	if err != nil {
		return nil, err
	}
	m.set("qofd.rss_mb", rss)

	if err := probeFullScan(ctx, w, cfg, corpus, m); err != nil {
		return nil, err
	}
	if cfg.traceOut != nil {
		if err := writeSpans(cfg.traceOut, t.spans); err != nil {
			return nil, fmt.Errorf("bench: writing spans: %w", err)
		}
	}
	out.samples = len(st.latencyMs)
	chk.finish(out, cfg)
	out.Metrics, err = m.finish()
	return out, err
}

// startProfiles begins a CPU profile for the in-process part of a traced
// run; the returned stop also writes the allocation profile, and does
// nothing when called again.
func startProfiles(dir, workload string) (stop func(), err error) {
	if dir == "" {
		return func() {}, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cpu, err := os.Create(filepath.Join(dir, workload+".cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, err
	}
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		pprof.StopCPUProfile()
		cpu.Close()
		// A profile that cannot be written loses a diagnostic aid, not a
		// measurement; say so and go on.
		if f, err := os.Create(filepath.Join(dir, workload+".allocs.pprof")); err != nil {
			fmt.Fprintf(os.Stderr, "bench: alloc profile: %v\n", err)
		} else {
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "bench: alloc profile: %v\n", err)
			}
			f.Close()
		}
	}, nil
}

// replay sends the workload's own sequence through each file's engine, the
// caches filling and evicting as in the timed run, and reads the counts
// engine.Stats exposes at that boundary. Its length is fixed, so the counts
// repeat exactly for a seed.
func replay(ctx context.Context, w *workload, cfg *config, units []*unit, expected []fingerprint, chk *tally, m *metricSet) error {
	n := max(cfg.sc.replay, len(w.pool))
	parsed := make([]*xsql.Query, len(w.pool))
	for i, q := range w.pool {
		var err error
		if parsed[i], err = xsql.Parse(q.src); err != nil {
			return err
		}
	}
	var (
		executions, planHits, resultHits, indexOnly, exact float64
		candidates, results, parsedRegions, parsedBytes    float64
		peak                                               int
	)
	runtime.GC()
	gc0, cpu0 := gcCPU()
	mal0, bytes0 := mallocs()
	for i := 0; i < n; i++ {
		idx := w.order[i%len(w.order)]
		rows := 0
		for _, u := range units {
			res, err := u.warm.ExecuteContext(ctx, parsed[idx], engine.Limits{})
			if err != nil {
				return fmt.Errorf("bench: replay: %s: %w", w.pool[idx].src, err)
			}
			s := res.Stats
			executions++
			planHits += b2f(s.PlanCached)
			resultHits += b2f(s.ResultCached)
			indexOnly += b2f(s.IndexOnly)
			exact += b2f(s.Exact)
			candidates += float64(s.Candidates)
			results += float64(s.Results)
			parsedRegions += float64(s.Parsed)
			parsedBytes += float64(s.ParsedBytes)
			if s.PeakBytes > peak {
				peak = s.PeakBytes
			}
			rows += s.Results
		}
		var err error
		if rows != expected[idx].Rows {
			err = fmt.Errorf("engines answer %d rows, want %d", rows, expected[idx].Rows)
		}
		chk.add(w.pool[idx].src, err)
	}
	mal1, bytes1 := mallocs()
	gc1, cpu1 := gcCPU()
	queries := float64(n)
	m.set("engine.plan_cache_hit_rate", planHits/executions)
	m.set("engine.result_cache_hit_rate", resultHits/executions)
	m.set("engine.index_only_share", indexOnly/executions)
	m.set("engine.exact_share", exact/executions)
	m.set("engine.candidates_per_result", ratio(candidates, results))
	m.set("engine.parsed_regions_per_query", parsedRegions/queries)
	m.set("engine.parsed_bytes_per_query", parsedBytes/queries)
	m.set("engine.peak_bytes_max", float64(peak))
	m.set("engine.allocs_per_query", float64(mal1-mal0)/queries)
	m.set("engine.alloc_kb_per_query", float64(bytes1-bytes0)/1024/queries)
	m.set("runtime.gc_cpu_share", ratio(gc1-gc0, cpu1-cpu0))
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// ladder replays sampled queries rung by rung.
type ladder struct {
	ctx      context.Context
	w        *workload
	cat      *compile.Catalog
	units    []*unit
	corpus   *qof.Corpus
	srv      *serve.Server
	client   *http.Client
	url      string
	bodies   [][]byte
	expected []fingerprint
	t        *tracer
	chk      *tally
}
