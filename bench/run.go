package main

// The untraced run: set the workload up several times, verify the pool,
// drive one timed window and report the end-to-end metrics.

import (
	"context"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"qof"
)

// config is one invocation's settings.
type config struct {
	sc         scale
	seed       int64
	seconds    float64
	workDir    string    // build outputs and the daemon's corpus files
	plantWrong bool      // self-test: corrupt one fingerprint so the check must fail
	traceOut   io.Writer // traced run: where the spans go, nil for nowhere
	profileDir string    // traced run: pprof output directory, "" for none
	log        io.Writer
}

// outcome is a run's result plus what a reader needs beside the numbers.
type outcome struct {
	result
	samples int          // latencies behind p50 and p99
	p99     *measurement // library workloads only; see libraryTail
	oracle  oracleReport // what set-up verification covered
}

// reported is the driver's metrics plus, on a library workload, the tail.
func (o *outcome) reported() map[string]measurement {
	if o.p99 == nil {
		return o.Metrics
	}
	m := maps.Clone(o.Metrics)
	m[libraryTail.Name] = *o.p99
	return m
}

func (c *config) logf(format string, args ...any) {
	fmt.Fprintf(c.log, format+"\n", args...)
}

// selfCPU is the bench process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapMB forces a collection and reports the live heap.
func heapMB() float64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what the first one's finalizers released
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runUntraced measures one workload's end-to-end metrics.
func runUntraced(ctx context.Context, w *workload, cfg *config) (*outcome, error) {
	if w.due != nil {
		return runDaemon(ctx, w, cfg)
	}
	return runLibrary(ctx, w, cfg)
}

// plant corrupts one fingerprint, for the self-test that proves the
// per-response check can fail.
func plant(expected []fingerprint) {
	expected[0].Hash ^= 1
}

// tally counts checked answers.
type tally struct {
	attempted, failed int
	first             error
}

func (t *tally) add(src string, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.first == nil {
			t.first = fmt.Errorf("%s: %w", src, err)
		}
	}
}

// finish fills the outcome's counts and logs the first failure.
func (t *tally) finish(out *outcome, cfg *config) {
	if t.first != nil {
		cfg.logf("# first failure: %v", t.first)
	}
	out.Attempted, out.Failed, out.Correct = t.attempted, t.failed, t.failed == 0
}

// answer sends one query through f and fingerprints the answer. An
// index-only workload's premise — nothing is parsed — is asserted here.
func answer(ctx context.Context, f *qof.File, w *workload, idx int) (fingerprint, error) {
	res, err := f.QueryContext(ctx, w.pool[idx].src)
	if err != nil {
		return fingerprint{}, err
	}
	if w.indexOnly && res.Stats.Parsed != 0 {
		return fingerprint{}, fmt.Errorf("%s must be index-only, but parsed %d regions", w.name, res.Stats.Parsed)
	}
	return fingerprintResults(f.Name(), res), nil
}

func runLibrary(ctx context.Context, w *workload, cfg *config) (*outcome, error) {
	d := w.docs[0]
	// setup_s: the text is in memory; a build ends when the file has
	// answered its first query.
	var (
		setups []float64
		file   *qof.File
	)
	for b := 0; b < cfg.sc.setups; b++ {
		file = nil // let the previous build go before the next one peaks
		runtime.GC()
		start := time.Now()
		f, err := qof.BibTeX().IndexContext(ctx, d.name, d.content, indexOptions(w.regions)...)
		if err != nil {
			return nil, fmt.Errorf("bench: indexing: %w", err)
		}
		if _, err := answer(ctx, f, w, 0); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", w.pool[0].src, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		file = f
	}

	// One warm-up pass over the pool on the last build: it fills the caches
	// as far as the pool lets them fill, and gives every query the
	// fingerprint its timed answers are checked against.
	expected := make([]fingerprint, len(w.pool))
	for i := range w.pool {
		var err error
		if expected[i], err = answer(ctx, file, w, i); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", w.pool[i].src, err)
		}
	}
	out := &outcome{}
	var err error
	if out.oracle, err = verifyPool(ctx, w, cfg.sc, cfg.seed, expected); err != nil {
		return nil, err
	}
	if cfg.plantWrong {
		plant(expected)
	}
	mem := heapMB()

	var (
		lat    []float64
		counts tally
	)
	window := time.Duration(cfg.seconds * float64(time.Second))
	cpu0, begin := selfCPU(), time.Now()
	for next := 0; ctx.Err() == nil; next++ {
		t0 := time.Now()
		if t0.Sub(begin) >= window {
			break
		}
		idx := w.order[next%len(w.order)]
		got, err := answer(ctx, file, w, idx)
		lat = append(lat, float64(time.Since(t0))/1e6)
		if err == nil {
			err = matches(got, expected[idx])
		}
		counts.add(w.pool[idx].src, err)
	}
	elapsed, cpu := time.Since(begin), selfCPU()-cpu0
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sort.Float64s(lat)
	out.samples = len(lat)
	counts.finish(out, cfg)
	out.p99 = &measurement{Value: quantile(lat, 0.99), Unit: libraryTail.Unit}
	m := newMetricSet(endToEnd)
	m.set("setup_s", median(setups))
	m.set("qps", float64(counts.attempted-counts.failed)/elapsed.Seconds())
	m.set("p50_ms", quantile(lat, 0.5))
	m.set("cpu_ms_per_query", float64(cpu)/1e6/float64(max(counts.attempted, 1)))
	m.set("mem_mb", mem)
	out.Metrics, err = m.finish()
	return out, err
}

// prepareDaemon builds qofd and writes the workload's corpus; the returned
// cleanup removes the corpus directory.
func prepareDaemon(ctx context.Context, w *workload, cfg *config) (bin, dir string, cleanup func(), err error) {
	root, err := moduleRoot()
	if err != nil {
		return "", "", nil, err
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return "", "", nil, err
	}
	if bin, err = buildQofd(ctx, root, cfg.workDir); err != nil {
		return "", "", nil, err
	}
	dir, err = os.MkdirTemp(cfg.workDir, "corpus-")
	if err != nil {
		return "", "", nil, err
	}
	cleanup = func() { _ = os.RemoveAll(dir) } // a leftover directory is only litter under the ignored work dir
	if err := writeDocs(dir, w.docs); err != nil {
		cleanup()
		return "", "", nil, err
	}
	return bin, dir, cleanup, nil
}

// corpusFingerprints answers the pool through an in-process facade Corpus
// over the same files: the daemon's expected answers.
func corpusFingerprints(ctx context.Context, w *workload) ([]fingerprint, error) {
	c, err := buildCorpus(ctx, w.docs, nil)
	if err != nil {
		return nil, fmt.Errorf("bench: indexing the reference corpus: %w", err)
	}
	fps := make([]fingerprint, len(w.pool))
	for i, q := range w.pool {
		res, err := c.ExecuteContext(ctx, q.src)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", q.src, err)
		}
		fps[i] = fingerprintHits(res.Hits)
	}
	return fps, nil
}

func runDaemon(ctx context.Context, w *workload, cfg *config) (*outcome, error) {
	bin, dir, cleanup, err := prepareDaemon(ctx, w, cfg)
	if err != nil {
		return nil, err
	}
	defer cleanup()

	expected, err := corpusFingerprints(ctx, w)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	if out.oracle, err = verifyPool(ctx, w, cfg.sc, cfg.seed, expected); err != nil {
		return nil, err
	}
	runtime.GC() // the reference corpus is garbage now; keep the generator's process light

	client := newClient()
	defer client.CloseIdleConnections()
	// setup_s: exec to /healthz 200, one child at a time; the last one stays.
	var (
		setups []float64
		c      *child
	)
	for b := 0; b < cfg.sc.setups; b++ {
		if c != nil {
			c.stop()
		}
		if c, err = startChild(ctx, bin, dir, client); err != nil {
			return nil, err
		}
		setups = append(setups, c.startS)
	}
	defer c.stop()

	// One warm-up pass over the pool, checked like every timed response.
	bodies := requestBodies(w.pool)
	for i := range w.pool {
		data, err := httpQuery(ctx, client, c.url, bodies[i])
		if err == nil {
			err = checkEnvelope(data, expected[i])
		}
		if err != nil {
			return nil, fmt.Errorf("bench: warm-up: %s: %w", w.pool[i].src, err)
		}
	}
	if cfg.plantWrong {
		plant(expected)
	}
	mem, err := c.rssMB()
	if err != nil {
		return nil, err
	}
	cpu0, err := c.cpuSeconds()
	if err != nil {
		return nil, err
	}
	st, err := driveOpenLoop(ctx, c, client, bodies, w.order, w.due, expected, cfg.logf)
	if err != nil {
		return nil, err
	}
	cpu1, err := c.cpuSeconds()
	if err != nil {
		return nil, err
	}
	if st.firstFailure != nil {
		cfg.logf("# first failure: %v", st.firstFailure)
	}
	out.samples = len(st.latencyMs)
	out.Attempted, out.Failed, out.Correct = st.attempted, st.failed, st.failed == 0
	m := newMetricSet(endToEnd)
	m.set("setup_s", median(setups))
	// The load is offered, so throughput is what came back over the time it
	// took to come back: the rate offered unless answers fail or queue up.
	m.set("qps", float64(st.attempted-st.failed)/st.elapsed.Seconds())
	m.set("p50_ms", quantile(st.latencyMs, 0.5))
	m.set("cpu_ms_per_query", (cpu1-cpu0)*1000/float64(st.attempted))
	m.set("mem_mb", mem)
	out.Metrics, err = m.finish()
	return out, err
}

// defaultWorkDir is where runs from a checkout put what they build.
func defaultWorkDir() string {
	root, err := moduleRoot()
	if err != nil {
		return ".bench_build" // the daemon build will report the real problem
	}
	return filepath.Join(root, ".bench_build")
}
