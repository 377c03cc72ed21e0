package serve_test

// The chaos-soak harness: a seeded, randomized storm of injected faults,
// hot reloads, client cancels and shed bursts against the daemon,
// with every survivor answer checked against a precomputed direct-facade
// oracle. The contract under chaos is honesty, not availability: a query
// may be shed, canceled, or degraded, but a response that claims to be
// complete must be byte-identical to the oracle, and a degraded response
// must still agree with the oracle on every file it does answer and name
// only real files in its degradation list. Afterwards the daemon must be
// whole again — complete answers, no leaked goroutines, no open iterators,
// bounded heap.
//
// QOF_CHAOS selects the storm budget: unset runs a ~2.5s deterministic
// smoke (the default `go test` path), "smoke" a ~32s soak (the CI chaos
// job), "full" a minutes-scale soak for manual runs. QOF_CHAOS_SEED
// reseeds the storm; the default is fixed so CI runs are reproducible.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qof"
	"qof/internal/algebra"
	"qof/internal/faultinject"
	"qof/internal/qgen"
	"qof/internal/serve"
)

func chaosBudget(t *testing.T) time.Duration {
	switch os.Getenv("QOF_CHAOS") {
	case "", "0":
		return 2500 * time.Millisecond
	case "smoke":
		return 32 * time.Second
	case "full":
		return 150 * time.Second
	default:
		t.Fatalf("QOF_CHAOS=%q, want unset, smoke or full", os.Getenv("QOF_CHAOS"))
		return 0
	}
}

func chaosSeed() int64 {
	if s := os.Getenv("QOF_CHAOS_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v
		}
	}
	return 1994
}

// chaosOracle is the precomputed truth for one corpus version: the facade's
// results for every workload query, plus the version's file set.
type chaosOracle struct {
	files   map[string]string
	results map[string]*qof.CorpusResults
}

func buildOracle(t *testing.T, schema *qof.Schema, files map[string]string, queries []string) *chaosOracle {
	t.Helper()
	direct := schema.NewCorpus()
	if err := direct.AddAll(files); err != nil {
		t.Fatal(err)
	}
	o := &chaosOracle{files: files, results: make(map[string]*qof.CorpusResults, len(queries))}
	for _, src := range queries {
		res, err := direct.ExecuteContext(context.Background(), src, qof.WithPartialResults())
		if err != nil {
			t.Fatalf("oracle %q: %v", src, err)
		}
		o.results[src] = res
	}
	return o
}

// checkChaosResponse validates one survivor answer against the oracle for
// the corpus version its epoch proves it was served from. It returns a
// non-nil error only for a genuinely wrong answer.
func checkChaosResponse(src string, resp *serve.Response, oracle *chaosOracle) error {
	res, ok := oracle.results[src]
	if !ok {
		return fmt.Errorf("no oracle for query %q", src)
	}
	if resp.Files != len(oracle.files) {
		return fmt.Errorf("response claims %d files, version has %d", resp.Files, len(oracle.files))
	}
	if resp.Complete() {
		// A complete answer must be byte-identical to the facade envelope.
		env := serve.NewEnvelope(resp)
		env.ElapsedUs = 0
		got, err := json.Marshal(env)
		if err != nil {
			return err
		}
		wantEnv := serve.NewEnvelope(&serve.Response{
			Epoch: resp.Epoch, Files: len(oracle.files),
			Hits: res.Hits, Degraded: res.Degraded, Stats: res.Stats,
		})
		wantEnv.ElapsedUs = 0
		want, err := json.Marshal(wantEnv)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("complete answer diverges from oracle:\n  got  %s\n  want %s", got, want)
		}
		return nil
	}
	// Degraded answer: every hit it does return must equal the oracle's hit
	// for that file exactly; every degradation must name a real file; and
	// every file the oracle has hits for must be accounted for — answered
	// or degraded, never silently dropped.
	oracleHits := make(map[string]qof.CorpusHit, len(res.Hits))
	for _, h := range res.Hits {
		oracleHits[h.File] = h
	}
	degraded := make(map[string]bool, len(resp.Degraded))
	for _, d := range resp.Degraded {
		if _, ok := oracle.files[d.File]; !ok {
			return fmt.Errorf("degraded list names %q, not a file of this version", d.File)
		}
		degraded[d.File] = true
	}
	answered := make(map[string]bool, len(resp.Hits))
	for _, h := range resp.Hits {
		want, ok := oracleHits[h.File]
		if !ok {
			return fmt.Errorf("hit for %q, but the oracle has none", h.File)
		}
		if !reflect.DeepEqual(h, want) {
			return fmt.Errorf("hit for %q diverges from oracle:\n  got  %+v\n  want %+v", h.File, h, want)
		}
		answered[h.File] = true
	}
	for f := range oracleHits {
		if !answered[f] && !degraded[f] {
			return fmt.Errorf("file %q has oracle hits but was neither answered nor degraded", f)
		}
	}
	return nil
}

// TestChaosSoak is the tentpole gate: survive the storm without ever lying.
func TestChaosSoak(t *testing.T) {
	budget := chaosBudget(t)
	seed := chaosSeed()
	base := runtime.NumGoroutine()
	baseStreams := algebra.OpenStreams()

	schema := schemaFor("bibtex")
	v2files := domainFiles("bibtex")
	names := make([]string, 0, len(v2files))
	for n := range v2files {
		names = append(names, n)
	}
	// v1 drops one file (deterministically: the lexicographically largest)
	// so reloads alternate between two observably different corpora.
	drop := ""
	for _, n := range names {
		if n > drop {
			drop = n
		}
	}
	v1files := make(map[string]string, len(v2files)-1)
	for n, c := range v2files {
		if n != drop {
			v1files[n] = c
		}
	}

	gen := qgen.NewQueryGen(qgenDomain("bibtex"), seed)
	const nQueries = 24
	seen := make(map[string]bool)
	queries := make([]string, 0, nQueries)
	for len(queries) < nQueries {
		src := gen.Query().String()
		if !seen[src] {
			seen[src] = true
			queries = append(queries, src)
		}
	}
	// Odd epochs serve v1, even epochs v2 (initial publish is epoch 1).
	oracles := [2]*chaosOracle{
		buildOracle(t, schema, v2files, queries), // parity 0
		buildOracle(t, schema, v1files, queries), // parity 1
	}

	srv := newServer(t, serve.Config{Schema: schema, MaxInflight: 24})
	if _, err := srv.Publish(v1files); err != nil {
		t.Fatal(err)
	}

	var (
		done       atomic.Bool
		mismatches atomic.Uint64
		checked    atomic.Uint64
		shed       atomic.Uint64
		canceled   atomic.Uint64
		samples    = make(chan error, 8)
	)
	record := func(err error) {
		mismatches.Add(1)
		select {
		case samples <- err:
		default:
		}
	}
	classify := func(src string, resp *serve.Response, err error) {
		switch {
		case err == nil:
			checked.Add(1)
			if verr := checkChaosResponse(src, resp, oracles[resp.Epoch%2]); verr != nil {
				record(fmt.Errorf("%q: %w", src, verr))
			}
		case errors.Is(err, serve.ErrShed):
			shed.Add(1)
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			canceled.Add(1)
		default:
			record(fmt.Errorf("%q: unexpected error class: %w", src, err))
		}
	}

	var wg sync.WaitGroup
	// Query workers: replay the workload, self-canceling a slice of calls.
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for !done.Load() {
				src := queries[rng.Intn(len(queries))]
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				if rng.Float64() < 0.15 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(1+rng.Intn(5))*time.Millisecond)
				}
				resp, err := srv.Execute(ctx, serve.Request{Query: src, Tenant: fmt.Sprintf("t%d", w%3)})
				cancel()
				classify(src, resp, err)
			}
		}(w)
	}
	// Fault storm: cycle seeded probabilistic configurations, with fault-free
	// intervals mixed in. Panics only at the per-file point, which recovers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed + 100))
		for !done.Load() {
			s := rng.Int63n(1 << 30)
			cfgs := []string{
				"", // fault-free interval
				fmt.Sprintf("%s=panic%%0.2/%d", faultinject.CorpusFile, s),
				fmt.Sprintf("%s=error%%0.15/%d", faultinject.CorpusFile, s),
				fmt.Sprintf("%s=delay:1ms%%0.4/%d", faultinject.CorpusFile, s),
				fmt.Sprintf("%s=error%%0.5/%d,%s=delay:2ms%%0.3/%d",
					faultinject.ServePublish, s, faultinject.CorpusFile, s+1),
			}
			cfg := cfgs[rng.Intn(len(cfgs))]
			if cfg == "" {
				faultinject.Reset()
			} else if err := faultinject.Configure(cfg); err != nil {
				record(fmt.Errorf("bad chaos config %q: %w", cfg, err))
				return
			}
			time.Sleep(time.Duration(25+rng.Intn(40)) * time.Millisecond)
		}
	}()
	// Hot reloads: keep the epoch parity invariant — odd serves v1, even v2.
	// Publishes may fail under injected publish faults; a failed publish
	// does not advance the epoch, so the invariant survives.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done.Load() {
			next := v2files
			if srv.Epoch()%2 == 0 {
				next = v1files
			}
			srv.Publish(next)
			time.Sleep(30 * time.Millisecond)
		}
	}()
	// Shed bursts: periodic stampedes past MaxInflight. Burst answers are
	// validated like any other — shedding must reject, never corrupt.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed + 200))
		for !done.Load() {
			var burst sync.WaitGroup
			src := queries[rng.Intn(len(queries))]
			for i := 0; i < 40; i++ {
				burst.Add(1)
				go func() {
					defer burst.Done()
					resp, err := srv.Execute(context.Background(), serve.Request{Query: src})
					classify(src, resp, err)
				}()
			}
			burst.Wait()
			time.Sleep(120 * time.Millisecond)
		}
	}()

	time.Sleep(budget)
	done.Store(true)
	wg.Wait()
	faultinject.Reset()

	// Verdicts. Zero wrong answers, and enough survivors that the check
	// meant something.
	close(samples)
	for err := range samples {
		t.Error(err)
	}
	if n := mismatches.Load(); n > 0 {
		t.Fatalf("%d wrong answers during the storm (first samples above)", n)
	}
	if checked.Load() == 0 {
		t.Fatal("storm validated no answers; every query shed or canceled")
	}
	t.Logf("chaos: %d answers validated, %d shed, %d canceled, seed %d, budget %s",
		checked.Load(), shed.Load(), canceled.Load(), seed, budget)

	// A clean final answer from each parity.
	for rounds := 0; rounds < 2; rounds++ {
		resp, err := srv.Execute(context.Background(), serve.Request{Query: queries[0]})
		if err != nil || !resp.Complete() {
			t.Fatalf("post-storm query: err=%v degraded=%v", err, resp.DegradedError())
		}
		if verr := checkChaosResponse(queries[0], resp, oracles[resp.Epoch%2]); verr != nil {
			t.Fatalf("post-storm answer: %v", verr)
		}
		next := v1files
		if resp.Epoch%2 == 1 {
			next = v2files
		}
		if _, err := srv.Publish(next); err != nil {
			t.Fatal(err)
		}
	}

	// No leaked goroutines, no open iterators, bounded heap.
	waitGoroutines(t, base)
	streamDeadline := time.Now().Add(5 * time.Second)
	for algebra.OpenStreams() != baseStreams {
		if time.Now().After(streamDeadline) {
			t.Fatalf("open streams = %d after storm, started with %d", algebra.OpenStreams(), baseStreams)
		}
		time.Sleep(10 * time.Millisecond)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > 256<<20 {
		t.Errorf("heap = %d MiB after the storm, want < 256 MiB", ms.HeapAlloc>>20)
	}
}
