package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"qof/internal/algebra"
	"qof/internal/bibtex"
	"qof/internal/grammar"
	"qof/internal/pool"
	"qof/internal/qerr"
	"qof/internal/region"
	"qof/internal/text"
	"qof/internal/xsql"
)

// faultIter fails a drain at its k-th Next call, before that candidate is
// handed over: with an error, with a panic (an operator bug deep in a
// phase-1 pipeline surfaces on the drain's goroutine this way), or by
// canceling the drain's context.
type faultIter struct {
	region.Iterator
	kind     string // "error", "panic", "cancel", or anything else for none
	calls, k int
	cancel   context.CancelFunc
}

var errStream = errors.New("injected candidate stream error")

func (it *faultIter) Next() (region.Region, bool, error) {
	if it.calls++; it.calls == it.k {
		switch it.kind {
		case "error":
			return region.Region{}, false, errStream
		case "panic":
			panic(fmt.Sprintf("injected panic on Next call %d", it.k))
		case "cancel":
			it.cancel()
		}
	}
	return it.Iterator.Next()
}

// notChang keeps most references. The index cannot narrow a negation, so
// on Reference alone every reference is a candidate and is parsed.
const notChang = `SELECT r.Key FROM References r WHERE NOT r.Authors.Name.Last_Name = "Chang"`

// drainFixture indexes n references on Reference alone: the paper's
// partial index without Last_Name, so a condition on it is decided by
// parsing.
func drainFixture(t *testing.T, n int, src string) (*Engine, *xsql.Query) {
	t.Helper()
	content, _ := bibtex.Generate(bibtex.DefaultConfig(n))
	cat := bibtex.Catalog()
	in, _, err := cat.Grammar.BuildInstance(text.NewDocument("corpus.bib", content), grammar.IndexSpec{Names: []string{bibtex.NTReference}})
	if err != nil {
		t.Fatal(err)
	}
	return New(cat, in), xsql.MustParse(src)
}

// The most helpers a test in this package pins is 7: start them before any
// test takes a goroutine count.
func init() { pool.SetHelpers(7)() }

// drain runs streamPhase2 with par goroutines parsing — the caller and
// par−1 helpers — over q's candidate stream as fault wraps it, under es,
// and closes the stream.
func drain(t *testing.T, e *Engine, q *xsql.Query, par int, es *execEnv, fault *faultIter) (*Result, bool, error) {
	t.Helper()
	plan, _, err := e.cat.PrepareQuery(q).Plan(e.choice)
	if err != nil {
		t.Fatal(err)
	}
	vp := &plan.Vars[0]
	it, err := e.ev.Stream(context.Background(), vp.Candidates, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fault.Iterator = it
	defer fault.Close()
	defer pool.SetHelpers(par - 1)()
	res := &Result{Plan: plan, eng: e}
	em := newEmitter(q, plan, res)
	complete, err := e.streamPhase2(es, plan, vp, &drainSource{it: fault}, res, em)
	em.finish()
	return res, complete, err
}

// settle waits for the goroutine count to come back to base.
func settle(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, started with %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestParallelFeederPanicIsInternalError drives the chunked phase-2 drain
// with a candidate iterator that panics on the drain's goroutine. The
// drain's recover must turn the panic into qerr.ErrInternal for this query
// alone: without it the panic kills the process. No worker may outlive the
// call, and the engine must answer the next query.
func TestParallelFeederPanicIsInternalError(t *testing.T) {
	e, q := drainFixture(t, 120, `SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`)
	want, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4} {
		for _, k := range []int{1, 3} {
			t.Run(fmt.Sprintf("par=%d/k=%d", par, k), func(t *testing.T) {
				base := runtime.NumGoroutine()
				_, complete, err := drain(t, e, q, par, &execEnv{ctx: context.Background()}, &faultIter{kind: "panic", k: k})
				if !errors.Is(err, qerr.ErrInternal) || complete {
					t.Fatalf("streamPhase2 = complete %v, err %v; want an ErrInternal failure", complete, err)
				}
				settle(t, base)
				got, err := e.Execute(q)
				if err != nil {
					t.Fatalf("next query after the panic: %v", err)
				}
				if !got.Regions.Equal(want.Regions) {
					t.Fatalf("next query after the panic: %d regions, want %d", got.Regions.Len(), want.Regions.Len())
				}
			})
		}
	}
}

// TestDrainChunkBoundaries fails the drain at the first candidates and on
// both sides of the chunk boundaries (chunks of 1, 2, 4, … 64 end after
// candidates 1, 3, 7, 63 and 127): the candidate stream fails, or the
// context is canceled as it hands a candidate over, or the byte budget runs
// out on it. The chunked drain must fail exactly as the sequential one does
// — same error, same candidates parsed before it, where the failure does not
// race the workers — and leave no stream or goroutine behind.
func TestDrainChunkBoundaries(t *testing.T) {
	e, q := drainFixture(t, 200, notChang)
	refs := e.in.MustRegion(bibtex.NTReference).Regions() // the candidates, in order
	baseGoroutines, baseStreams := runtime.NumGoroutine(), algebra.OpenStreams()
	for _, kind := range []string{"error", "panic", "cancel", "budget"} {
		for _, k := range []int{1, 2, 3, 4, 63, 64, 65, 127, 128} {
			var seq *Result
			var seqErr error
			for _, par := range []int{1, 4} {
				ctx, cancel := context.WithCancel(context.Background())
				es := &execEnv{ctx: ctx}
				if kind == "budget" {
					for _, r := range refs[:k] { // one byte short of the k-th
						es.lim.MaxEvalBytes += r.Len()
					}
					es.lim.MaxEvalBytes--
				}
				res, complete, err := drain(t, e, q, par, es, &faultIter{kind: kind, k: k, cancel: cancel})
				cancel()
				if err == nil || complete {
					t.Fatalf("%s at %d, parallelism %d: complete %v, err %v", kind, k, par, complete, err)
				}
				if par == 1 {
					seq, seqErr = res, err
					continue
				}
				if err.Error() != seqErr.Error() {
					t.Errorf("%s at %d: parallelism %d fails with %q, sequentially %q", kind, k, par, err, seqErr)
				}
				// A cancel reaches the workers while they are still on
				// earlier candidates; the stream's own failures do not.
				if kind != "cancel" && res.Stats.Parsed != seq.Stats.Parsed {
					t.Errorf("%s at %d: parallelism %d parsed %d before failing, sequentially %d",
						kind, k, par, res.Stats.Parsed, seq.Stats.Parsed)
				}
			}
			switch {
			case kind == "cancel" && !errors.Is(seqErr, context.Canceled),
				kind == "panic" && !errors.Is(seqErr, qerr.ErrInternal),
				kind == "error" && !errors.Is(seqErr, errStream),
				kind == "budget" && (!errors.Is(seqErr, qerr.ErrBudgetExceeded) || seq.Stats.Parsed != k-1):
				t.Errorf("%s at %d: %v", kind, k, seqErr)
			}
		}
	}
	if n := algebra.OpenStreams(); n != baseStreams {
		t.Errorf("%d streams open, %d before", n, baseStreams)
	}
	settle(t, baseGoroutines)
}

// TestLimitReadAheadBound pins what a LIMIT costs the chunked drain: the
// answer and every statistic but Candidates are the sequential drain's, and
// Candidates exceeds the sequential count by less than the in-flight bound,
// 2·helpers+2 chunks of at most maxChunk candidates. A LIMIT that the
// first candidate meets reads nothing ahead. A byte budget is spent as the
// sequential drain spends it: what was cut ahead is not charged against a
// LIMIT-stopped query, so the budget that sufficed sequentially suffices,
// and one byte less does not.
func TestLimitReadAheadBound(t *testing.T) {
	e, q := drainFixture(t, 300, notChang)
	readAhead := 0
	for _, k := range []int{1, 2, 3, 4, 10, 64, 100, 200} {
		lq := q.WithLimit(k)
		restore := pool.SetHelpers(0)
		seq, err := e.Execute(lq)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		if seq.Stats.Results != k {
			t.Fatalf("LIMIT %d: %d rows; the fixture is too small", k, seq.Stats.Results)
		}
		for _, helpers := range []int{1, 3, 7} {
			restore := pool.SetHelpers(helpers)
			got, err := e.Execute(lq)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got.Strings) != fmt.Sprint(seq.Strings) || !got.Regions.Equal(seq.Regions) {
				t.Fatalf("LIMIT %d, %d helpers: answer differs from the sequential one", k, helpers)
			}
			g, s := got.Stats, seq.Stats
			if g.Parsed != s.Parsed || g.ParsedBytes != s.ParsedBytes || g.Results != s.Results {
				t.Errorf("LIMIT %d, %d helpers: parsed %d (%d bytes), %d rows; sequentially %d (%d bytes), %d rows",
					k, helpers, g.Parsed, g.ParsedBytes, g.Results, s.Parsed, s.ParsedBytes, s.Results)
			}
			extra := g.Candidates - s.Candidates
			if extra < 0 || extra >= (2*helpers+2)*maxChunk || (k == 1 && extra != 0) {
				t.Errorf("LIMIT %d, %d helpers: %d candidates cut, sequentially %d: read ahead %d, bound %d",
					k, helpers, g.Candidates, s.Candidates, extra, (2*helpers+2)*maxChunk)
			}
			readAhead = max(readAhead, extra)
			if _, err := e.ExecuteContext(context.Background(), lq, Limits{MaxEvalBytes: s.ParsedBytes}); err != nil {
				t.Errorf("LIMIT %d, %d helpers: the sequential run's %d bytes no longer suffice: %v", k, helpers, s.ParsedBytes, err)
			}
			if _, err := e.ExecuteContext(context.Background(), lq, Limits{MaxEvalBytes: s.ParsedBytes - 1}); !errors.Is(err, qerr.ErrBudgetExceeded) {
				t.Errorf("LIMIT %d, %d helpers: %d bytes, one short of the sequential run's: %v", k, helpers, s.ParsedBytes-1, err)
			}
			restore()
		}
	}
	if readAhead == 0 {
		t.Error("no run read ahead; the bound is vacuous")
	}
}
