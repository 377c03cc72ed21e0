package qof_test

// The fault matrix drives every registered failpoint, under every injection
// kind, through the public facade, and asserts the robustness contract: an
// injected failure surfaces as a typed error (ErrInjected for injected
// errors, ErrInternal for recovered panics) or degrades cleanly (cache
// faults never fail a query), never hangs, and always leaves the engine
// fully usable — proven by re-running a known query after every single case
// and, in TestFaultMatrixPostFaultOracle, by differential testing a
// post-fault engine against the reference evaluator.
//
// Set QOF_FAULT_MATRIX=full to extend the matrix with the delay kind.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"qof"
	"qof/internal/bibtex"
	"qof/internal/faultinject"
	"qof/internal/index"
	"qof/internal/qgen"
	"qof/internal/refeval/diff"
	"qof/internal/serve"
	"qof/internal/xsql"
)

const matrixQuery = `SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`

// queryOnce runs matrixQuery on f and verifies the known answer; it is both
// the faulted operation for the query-path failpoints and the post-fault
// health check.
func queryOnce(f *qof.File) error {
	res, err := f.Query(matrixQuery)
	if err != nil {
		return err
	}
	if res.Len() != 1 {
		return fmt.Errorf("got %d results, want 1", res.Len())
	}
	return nil
}

// matrixCase wires one failpoint to the facade operation that crosses it.
// setup builds all fixtures BEFORE injection is configured (so fixture
// construction never trips the failpoint itself) and returns the operation
// to run under injection plus a health check to run after Reset.
type matrixCase struct {
	point string
	// degrades marks failpoints whose error kind must NOT fail the
	// operation: cache faults turn into a forced miss or a dropped entry.
	degrades bool
	// panicDegrades marks failpoints whose panic kind must not fail the
	// operation either: a panicking hedged attempt loses the race while
	// the primary still answers completely.
	panicDegrades bool
	setup         func(t *testing.T) (op, check func() error)
}

func fileFixture(t *testing.T) *qof.File {
	t.Helper()
	f, err := qof.BibTeX().Index("matrix.bib", bibtex.SampleEntry)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func matrixCases() []matrixCase {
	queryCase := func(point string, degrades bool) matrixCase {
		return matrixCase{point: point, degrades: degrades,
			setup: func(t *testing.T) (func() error, func() error) {
				f := fileFixture(t)
				return func() error { return queryOnce(f) }, func() error { return queryOnce(f) }
			}}
	}
	return []matrixCase{
		{point: faultinject.IndexBuild,
			setup: func(t *testing.T) (func() error, func() error) {
				op := func() error {
					_, err := qof.BibTeX().Index("matrix.bib", bibtex.SampleEntry)
					return err
				}
				return op, func() error { return queryOnce(fileFixture(t)) }
			}},
		{point: faultinject.PersistSave,
			setup: func(t *testing.T) (func() error, func() error) {
				f := fileFixture(t)
				op := func() error { return f.Save(io.Discard) }
				check := func() error {
					if err := f.Save(io.Discard); err != nil {
						return err
					}
					return queryOnce(f)
				}
				return op, check
			}},
		{point: faultinject.PersistLoad,
			setup: func(t *testing.T) (func() error, func() error) {
				var buf bytes.Buffer
				if err := fileFixture(t).Save(&buf); err != nil {
					t.Fatal(err)
				}
				load := func() error {
					f, err := qof.BibTeX().Load(bytes.NewReader(buf.Bytes()), "matrix.bib", bibtex.SampleEntry)
					if err != nil {
						return err
					}
					return queryOnce(f)
				}
				return load, load
			}},
		queryCase(faultinject.PlanCacheGet, true),
		queryCase(faultinject.PlanCachePut, true),
		queryCase(faultinject.ResultCacheGet, true),
		queryCase(faultinject.ResultCachePut, true),
		queryCase(faultinject.Phase2, false),
		{point: faultinject.CorpusFile,
			setup: func(t *testing.T) (func() error, func() error) {
				c := qof.BibTeX().NewCorpus()
				files := map[string]string{
					"a.bib": bibtex.SampleEntry, "b.bib": bibtex.SampleEntry, "c.bib": bibtex.SampleEntry,
				}
				if err := c.AddAll(files); err != nil {
					t.Fatal(err)
				}
				op := func() error {
					_, err := c.Query(matrixQuery)
					return err
				}
				check := func() error {
					hits, err := c.Query(matrixQuery)
					if err != nil {
						return err
					}
					if len(hits) != 3 {
						return fmt.Errorf("got %d corpus hits, want 3", len(hits))
					}
					return nil
				}
				return op, check
			}},
		{point: faultinject.ServeShard,
			setup: func(t *testing.T) (func() error, func() error) {
				// One replica per file: with no copy to fail over to, a
				// faulted scatter leg degrades rather than fails, and the
				// typed cause must survive through DegradedError.
				srv := serveFixture(t, 1)
				op := func() error {
					resp, err := srv.Execute(t.Context(), serve.Request{Query: matrixQuery})
					if err != nil {
						return err
					}
					return resp.DegradedError()
				}
				return op, func() error { return serveHealthy(t, srv) }
			}},
		{point: faultinject.ServeReplica,
			setup: func(t *testing.T) (func() error, func() error) {
				// Two replicas, with the primary of a.bib pinned open so its
				// group deterministically routes to the secondary — whose
				// failover attempt then faults. With both replicas down the
				// group degrades with the typed cause; after Reset the
				// secondary is healthy again and failover completes the
				// answer even though the pin stays.
				srv := serveFixture(t, 2)
				srv.ForceBreaker(serve.ShardOf("a.bib", 2), true)
				op := func() error {
					resp, err := srv.Execute(t.Context(), serve.Request{Query: matrixQuery})
					if err != nil {
						return err
					}
					return resp.DegradedError()
				}
				return op, func() error { return serveHealthy(t, srv) }
			}},
		{point: faultinject.ServeHedge, degrades: true, panicDegrades: true,
			setup: func(t *testing.T) (func() error, func() error) {
				// Two replicas and a near-zero hedge delay: every group
				// hedges to its secondary almost immediately. A faulted
				// hedge loses the race while the healthy primary answers,
				// so the response stays complete whatever the kind. The
				// timer still races the primary, so the operation retries
				// until a hedge actually crossed the failpoint.
				srv := serveFixtureCfg(t, serve.Config{
					Schema: qof.BibTeX(), Shards: 2, Replicas: 2,
					HedgeAfter: time.Nanosecond,
				})
				op := func() error {
					var firstErr error
					for round := 0; round < 500 && faultinject.Hits(faultinject.ServeHedge) == 0; round++ {
						resp, err := srv.Execute(t.Context(), serve.Request{Query: matrixQuery})
						if err != nil {
							return err
						}
						if err := resp.DegradedError(); err != nil && firstErr == nil {
							firstErr = err
						}
					}
					return firstErr
				}
				return op, func() error { return serveHealthy(t, srv) }
			}},
		{point: faultinject.ServePublish,
			setup: func(t *testing.T) (func() error, func() error) {
				srv := serveFixture(t, 2)
				op := func() error {
					_, err := srv.Publish(map[string]string{
						"a.bib": bibtex.SampleEntry, "b.bib": bibtex.SampleEntry, "c.bib": bibtex.SampleEntry,
					})
					return err
				}
				// A failed publish must leave the previous generation
				// serving; a clean one must swap in the next epoch.
				check := func() error {
					if err := op(); err != nil {
						return err
					}
					return serveHealthy(t, srv)
				}
				return op, check
			}},
	}
}

// serveFixture builds a published 2-shard daemon with the given replica
// count for the serve.* cases.
func serveFixture(t *testing.T, replicas int) *serve.Server {
	t.Helper()
	return serveFixtureCfg(t, serve.Config{Schema: qof.BibTeX(), Shards: 2, Replicas: replicas})
}

// serveFixtureCfg builds and publishes a daemon under an explicit config.
func serveFixtureCfg(t *testing.T, cfg serve.Config) *serve.Server {
	t.Helper()
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Publish(map[string]string{
		"a.bib": bibtex.SampleEntry, "b.bib": bibtex.SampleEntry, "c.bib": bibtex.SampleEntry,
	}); err != nil {
		t.Fatal(err)
	}
	return srv
}

// serveHealthy asserts the daemon answers the known query completely.
func serveHealthy(t *testing.T, srv *serve.Server) error {
	resp, err := srv.Execute(t.Context(), serve.Request{Query: matrixQuery})
	if err != nil {
		return err
	}
	if err := resp.DegradedError(); err != nil {
		return err
	}
	if len(resp.Hits) != 3 {
		return fmt.Errorf("got %d daemon hits, want 3", len(resp.Hits))
	}
	return nil
}

// runGuarded runs op on its own goroutine with a generous watchdog — an
// injected fault that deadlocks or leaks an unrecovered panic is exactly
// what the matrix exists to catch.
func runGuarded(t *testing.T, op func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- fmt.Errorf("panic crossed the API boundary: %v", p)
			}
		}()
		done <- op()
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("operation hung under fault injection")
		return nil
	}
}

func TestFaultMatrix(t *testing.T) {
	if faultinject.Active() {
		t.Fatal("injection already active at test entry")
	}
	kinds := []string{"error", "panic"}
	if os.Getenv("QOF_FAULT_MATRIX") == "full" {
		kinds = append(kinds, "delay:5ms")
	}
	covered := make(map[string]bool)
	for _, mc := range matrixCases() {
		covered[mc.point] = true
		for _, kind := range kinds {
			t.Run(mc.point+"/"+kind, func(t *testing.T) {
				op, check := mc.setup(t)
				if err := faultinject.Configure(mc.point + "=" + kind); err != nil {
					t.Fatal(err)
				}
				err := runGuarded(t, op)
				if faultinject.Hits(mc.point) == 0 {
					t.Errorf("operation never crossed failpoint %s", mc.point)
				}
				faultinject.Reset()
				switch {
				case strings.HasPrefix(kind, "delay"):
					if err != nil {
						t.Errorf("delay fault failed the operation: %v", err)
					}
				case kind == "error" && mc.degrades:
					if err != nil {
						t.Errorf("cache fault failed the operation: %v", err)
					}
				case kind == "error":
					if !errors.Is(err, faultinject.ErrInjected) {
						t.Errorf("err = %v, want ErrInjected", err)
					}
				case kind == "panic" && mc.panicDegrades:
					if err != nil {
						t.Errorf("losing-attempt panic failed the operation: %v", err)
					}
				case kind == "panic":
					if !errors.Is(err, qof.ErrInternal) {
						t.Errorf("err = %v, want ErrInternal", err)
					}
				}
				// Whatever the fault did, the engine serves correctly now.
				if err := runGuarded(t, check); err != nil {
					t.Errorf("post-fault health check: %v", err)
				}
			})
		}
	}
	// A failpoint added to the catalog without a matrix case is a hole in
	// the robustness suite; fail loudly instead of silently shrinking.
	for _, name := range faultinject.Catalog() {
		if !covered[name] {
			t.Errorf("catalog failpoint %s has no fault-matrix case", name)
		}
	}
}

// TestFaultMatrixCorpusPartial is the degraded-mode leg: with per-file
// faults injected, a partial corpus query reports every file in Degraded
// with typed attribution instead of failing, and recovers fully.
func TestFaultMatrixCorpusPartial(t *testing.T) {
	c := qof.BibTeX().NewCorpus()
	files := map[string]string{"a.bib": bibtex.SampleEntry, "b.bib": bibtex.SampleEntry}
	if err := c.AddAll(files); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"error", "panic"} {
		if err := faultinject.Configure(faultinject.CorpusFile + "=" + kind); err != nil {
			t.Fatal(err)
		}
		res, err := c.ExecuteContext(t.Context(), matrixQuery, qof.WithPartialResults())
		faultinject.Reset()
		if err != nil {
			t.Fatalf("%s: partial query failed outright: %v", kind, err)
		}
		if len(res.Hits) != 0 || len(res.Degraded) != 2 {
			t.Fatalf("%s: hits=%d degraded=%d, want 0/2", kind, len(res.Hits), len(res.Degraded))
		}
		want := error(faultinject.ErrInjected)
		if kind == "panic" {
			want = qof.ErrInternal
		}
		for _, fe := range res.Degraded {
			if !errors.Is(fe.Err, want) {
				t.Errorf("%s: %s failed with %v, want %v", kind, fe.File, fe.Err, want)
			}
		}
		if err := res.DegradedError(); !errors.Is(err, want) || !strings.Contains(err.Error(), "a.bib") {
			t.Errorf("%s: DegradedError = %v", kind, err)
		}
	}
	res, err := c.ExecuteContext(t.Context(), matrixQuery)
	if err != nil || len(res.Hits) != 2 || len(res.Degraded) != 0 {
		t.Fatalf("post-fault corpus query: hits=%v err=%v", res, err)
	}
}

// TestFaultMatrixPostFaultOracle hammers one engine with every failpoint in
// error mode, then differentially tests it against the reference evaluator:
// a fault must never poison a cache or tear the instance in a way that
// changes later answers.
func TestFaultMatrixPostFaultOracle(t *testing.T) {
	d := qgen.BibTeX(7)
	h, err := diff.New(d, 0, d.Specs[0])
	if err != nil {
		t.Fatal(err)
	}
	g := qgen.NewQueryGen(d, 11)
	queries := make([]*xsql.Query, 6)
	for i := range queries {
		queries[i] = g.Query()
	}
	var saved bytes.Buffer
	if err := h.In.Save(&saved); err != nil {
		t.Fatal(err)
	}
	for _, point := range faultinject.Catalog() {
		if err := faultinject.Configure(point + "=error"); err != nil {
			t.Fatal(err)
		}
		// Cross every path the failpoints guard; errors are the point.
		for _, q := range queries {
			h.Eng.Execute(q)
		}
		h.In.Save(io.Discard)
		index.Load(bytes.NewReader(saved.Bytes()), d.Doc)
		d.Cat.Grammar.BuildInstance(d.Doc, d.Specs[0])
		faultinject.Reset()
		for i, q := range queries {
			if err := h.CheckQuery(q); err != nil {
				t.Errorf("after %s fault, query %d diverges from oracle: %v", point, i, err)
			}
		}
	}
}
