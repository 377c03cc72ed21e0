package main

// Layer probes: fixed micro-measurements on the workload's own instance
// for the layers a query-level rung cannot isolate — region kernels, index
// lookups, index build and persistence, publish cost per replica count, and
// the paper's full-scan baseline.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"qof"
	"qof/internal/index"
	"qof/internal/region"
	"qof/internal/serve"
)

// perOp runs fn reps times and returns the mean duration of one call in
// nanoseconds.
func perOp(reps int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	return float64(time.Since(start)) / float64(reps)
}

// probeIndex measures word-index lookups, build and persistence on the
// first file's instance.
func probeIndex(u *unit, w *workload, seed int64, m *metricSet) error {
	rng := rand.New(rand.NewSource(subSeed(seed, "probe/"+w.name)))
	words := pickWords(rng, 64)
	wi := u.in.Words()
	const reps = 4
	m.set("index.word_lookup_ns", perOp(reps, func() {
		for _, x := range words {
			wi.MatchPoints(x)
		}
	})/float64(len(words)))
	// The prefix path XSQL reaches is STARTS, a prefix selection over leaf
	// regions. PrefixMatchPoints, PAT's sistring search, is reached by no
	// query, and its first call sorts every sistring of the document (about
	// 6 s at 20k references), so the probe leaves it alone.
	keys := u.in.MustRegion(regionKey)
	m.set("index.prefix_lookup_ns", perOp(reps, func() { wi.SelectPrefix(keys, "Key0001") }))
	refs := u.in.MustRegion(regionReference)
	m.set("index.select_contains_ns_per_region", perOp(reps, func() {
		for _, x := range words[:16] {
			wi.SelectContaining(refs, x)
		}
	})/16/float64(max(refs.Len(), 1)))

	start := time.Now()
	index.NewWordIndex(u.doc)
	m.set("index.word_index_build_s", time.Since(start).Seconds())

	var buf bytes.Buffer
	start = time.Now()
	if err := u.in.Save(&buf); err != nil {
		return fmt.Errorf("bench: saving the index: %w", err)
	}
	m.set("index.save_ms", float64(time.Since(start))/1e6)
	m.set("index.bytes_per_doc_byte", float64(buf.Len())/float64(max(u.doc.Len(), 1)))
	start = time.Now()
	if _, err := index.Load(bytes.NewReader(buf.Bytes()), u.doc); err != nil {
		return fmt.Errorf("bench: loading the index: %w", err)
	}
	m.set("index.load_ms", float64(time.Since(start))/1e6)
	return nil
}

// probeRegion times the inclusion kernels on two fixed operand pairs from
// the workload's instance — Reference × σ="Chang"(Last_Name), a selective
// right side, and Reference × Last_Name, a dense one — per region of input.
func probeRegion(u *unit, m *metricSet) {
	refs := u.in.MustRegion(regionReference)
	names := u.in.MustRegion(regionLastName)
	pairs := [][2]region.Set{
		{refs, u.in.Words().SelectEquals(names, target)},
		{refs, names},
	}
	regions := 0
	for _, p := range pairs {
		regions += p[0].Len() + p[1].Len()
	}
	per := float64(max(regions, 1))
	uni := u.in.Universe()
	const reps = 5
	mal0, _ := mallocs()
	m.set("region.including_ns_per_region", perOp(reps, func() {
		for _, p := range pairs {
			p[0].Including(p[1])
		}
	})/per)
	m.set("region.included_ns_per_region", perOp(reps, func() {
		for _, p := range pairs {
			p[1].Included(p[0])
		}
	})/per)
	m.set("region.direct_including_ns_per_region", perOp(reps, func() {
		for _, p := range pairs {
			uni.DirectlyIncluding(p[0], p[1])
		}
	})/per)
	mal1, _ := mallocs()
	m.set("region.kernel_allocs_per_op", float64(mal1-mal0)/float64(3*reps*len(pairs)))
}

// probePublish measures what replication costs at publish: time and live
// heap with one replica per file, then with the child's two. It returns the
// two-replica server — configured like the child — for the serve rung.
func probePublish(ctx context.Context, w *workload, m *metricSet) (*serve.Server, error) {
	files := make(map[string]string, len(w.docs))
	for _, d := range w.docs {
		files[d.name] = d.content
	}
	var srv *serve.Server
	for _, r := range []struct {
		replicas   int
		time, heap string
	}{
		{1, "serve.publish_r1_s", "serve.heap_r1_mb"},
		{2, "serve.publish_r2_s", "serve.heap_r2_mb"},
	} {
		srv = nil // release the one-replica server before measuring the next
		before := heapMB()
		s, err := serve.New(childConfig(r.replicas))
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := s.PublishContext(ctx, files); err != nil {
			return nil, fmt.Errorf("bench: publishing with %d replicas: %w", r.replicas, err)
		}
		m.set(r.time, time.Since(start).Seconds())
		m.set(r.heap, heapMB()-before)
		srv = s
	}
	return srv, nil
}

// probeFullScan records the paper's E1 ratio for context: a few sampled
// pool queries answered by scan.FullScan at full size, against the same
// queries on the indexed corpus. It also checks the two agree.
func probeFullScan(ctx context.Context, w *workload, cfg *config, corpus *qof.Corpus, m *metricSet) error {
	content := make(map[string]string, len(w.docs))
	for _, d := range w.docs {
		content[d.name] = d.content
	}
	var scanMs, engineMs []float64
	for _, i := range sampleIndexes(cfg.seed, "fullscan/"+w.name, len(w.pool), cfg.sc.fullScans) {
		src := w.pool[i].src
		start := time.Now()
		want, err := fullScanRows(w.docs, src)
		if err != nil {
			return fmt.Errorf("bench: full scan of %s: %w", src, err)
		}
		scanMs = append(scanMs, float64(time.Since(start))/1e6)
		start = time.Now()
		res, err := corpus.ExecuteContext(ctx, src)
		if err != nil {
			return fmt.Errorf("bench: %s: %w", src, err)
		}
		engineMs = append(engineMs, float64(time.Since(start))/1e6)
		if got := rowsOf(content, res.Hits); !slices.Equal(got, want) {
			return fmt.Errorf("oracle: %s at full size: engine answers %d rows, full scan %d", src, len(got), len(want))
		}
	}
	m.set("scan.fullscan_ms", median(scanMs))
	m.set("engine.speedup_vs_fullscan", ratio(median(scanMs), median(engineMs)))
	return nil
}
