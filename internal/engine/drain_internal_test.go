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
	"qof/internal/faultinject"
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

// neverMet is a LIMIT above every fixture's answer: a query under it drains
// as a LIMIT query does, and the limit stops nothing.
const neverMet = 1 << 20

// drain runs the LIMIT stream's drain, streamPhase2, with par−1 helpers
// pinned, over q's candidate stream as fault wraps it, under es, and closes
// the stream. q carries a LIMIT.
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

// setDrain runs drainSet with par−1 helpers pinned over q's complete
// candidate set, under es. q has no LIMIT, so with helpers the drain is
// parallel.
func setDrain(t *testing.T, e *Engine, q *xsql.Query, par int, es *execEnv) (*Result, error) {
	t.Helper()
	plan, _, err := e.cat.PrepareQuery(q).Plan(e.choice)
	if err != nil {
		t.Fatal(err)
	}
	vp := &plan.Vars[0]
	cands, err := e.ev.Eval(vp.Candidates)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.SetHelpers(par - 1)()
	res := &Result{Plan: plan, eng: e}
	em := newEmitter(q, plan, res)
	err = e.drainSet(es, plan, vp, cands, res, em)
	em.finish()
	return res, err
}

// cancelAfterHits is a context that reads as canceled once the engine.phase2
// failpoint has been reached k times: cancellation lands between two
// candidates, deterministically. As the context contract has it, Done is
// closed from then on, and Err is non-nil only then. CancelAfterHits
// (export_test.go) makes one for the package's external tests.
type cancelAfterHits struct {
	context.Context
	k    uint64
	done chan struct{}
}

func (c cancelAfterHits) Done() <-chan struct{} {
	if faultinject.Hits(faultinject.Phase2) >= c.k {
		return closedDone
	}
	return c.done
}

// closedDone is the Done channel of a context that is over.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

func (c cancelAfterHits) Err() error {
	if faultinject.Hits(faultinject.Phase2) >= c.k {
		return context.Canceled
	}
	return nil
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

// TestParallelFeederPanicIsInternalError drives the LIMIT stream's drain
// with a candidate iterator that panics on the drain's goroutine, with
// helpers pinned. The drain's recover must turn the panic into
// qerr.ErrInternal for this query alone: without it the panic kills the
// process. No goroutine may outlive the call, and the engine must answer the
// next query.
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
				_, complete, err := drain(t, e, q.WithLimit(neverMet), par, &execEnv{ctx: context.Background()}, &faultIter{kind: "panic", k: k})
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

// drainFailurePoints are the candidates a drain test fails at: the first
// ones, and both sides of 64 and 128.
var drainFailurePoints = []int{1, 2, 3, 4, 63, 64, 65, 127, 128}

// TestDrainChunkBoundaries fails the LIMIT stream's drain at the
// drainFailurePoints: the candidate stream fails or panics, or the context
// is canceled as it hands a candidate over, or the byte budget runs out on
// it. A LIMIT query drains sequentially whatever the helper budget, so with
// three helpers the drain fails exactly as with none — same error, same
// candidates parsed before it — and leaves no stream or goroutine behind.
func TestDrainChunkBoundaries(t *testing.T) {
	e, q := drainFixture(t, 200, notChang)
	q = q.WithLimit(neverMet)
	refs := e.in.MustRegion(bibtex.NTReference).Regions() // the candidates, in order
	baseGoroutines, baseStreams := runtime.NumGoroutine(), algebra.OpenStreams()
	for _, kind := range []string{"error", "panic", "cancel", "budget"} {
		for _, k := range drainFailurePoints {
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
				if res.Stats.Parsed != seq.Stats.Parsed || res.Stats.Candidates != seq.Stats.Candidates {
					t.Errorf("%s at %d: parallelism %d parsed %d of %d candidates before failing, sequentially %d of %d",
						kind, k, par, res.Stats.Parsed, res.Stats.Candidates, seq.Stats.Parsed, seq.Stats.Candidates)
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

// TestSetDrainFailurePoints fails the drain of a set in memory with no
// LIMIT at the drainFailurePoints: the engine.phase2 failpoint errors or
// panics on the k-th candidate, the context is canceled after it, or the
// byte budget runs out on it. With three helpers the drain is parallel, and
// it fails as the sequential drain does: same error, and, but for a cancel
// (the helpers' builds poll it too), the same candidates parsed before it,
// k−1. No goroutine is left behind.
func TestSetDrainFailurePoints(t *testing.T) {
	defer faultinject.Reset()
	e, q := drainFixture(t, 200, notChang)
	refs := e.in.MustRegion(bibtex.NTReference).Regions() // the candidates, in order
	baseGoroutines := runtime.NumGoroutine()
	for _, kind := range []string{"error", "panic", "cancel", "budget"} {
		for _, k := range drainFailurePoints {
			var seq *Result
			var seqErr error
			for _, par := range []int{1, 4} {
				es := &execEnv{ctx: context.Background()}
				spec := fmt.Sprintf("engine.phase2=%s@%d", kind, k)
				switch kind {
				case "cancel":
					// The delay of nothing only counts candidates for the cancel.
					es.ctx, spec = cancelAfterHits{Context: es.ctx, k: uint64(k), done: make(chan struct{})}, "engine.phase2=delay:0s"
				case "budget":
					for _, r := range refs[:k] { // one byte short of the k-th
						es.lim.MaxEvalBytes += r.Len()
					}
					es.lim.MaxEvalBytes--
					spec = "engine.phase2=delay:0s"
				}
				if err := faultinject.Configure(spec); err != nil {
					t.Fatal(err)
				}
				res, err := setDrain(t, e, q, par, es)
				faultinject.Reset()
				if err == nil {
					t.Fatalf("%s at %d, parallelism %d: the drain succeeded", kind, k, par)
				}
				if par == 1 {
					seq, seqErr = res, err
					continue
				}
				if err.Error() != seqErr.Error() {
					t.Errorf("%s at %d: parallelism %d fails with %q, sequentially %q", kind, k, par, err, seqErr)
				}
				if kind != "cancel" && res.Stats.Parsed != seq.Stats.Parsed {
					t.Errorf("%s at %d: parallelism %d parsed %d before failing, sequentially %d", kind, k, par, res.Stats.Parsed, seq.Stats.Parsed)
				}
			}
			switch want := k - 1; {
			case kind == "cancel" && (!errors.Is(seqErr, context.Canceled) || seq.Stats.Parsed != k),
				kind == "panic" && (!errors.Is(seqErr, qerr.ErrInternal) || seq.Stats.Parsed != want),
				kind == "error" && (!errors.Is(seqErr, faultinject.ErrInjected) || seq.Stats.Parsed != want),
				kind == "budget" && (!errors.Is(seqErr, qerr.ErrBudgetExceeded) || seq.Stats.Parsed != want):
				t.Errorf("%s at %d: %v after %d parsed", kind, k, seqErr, seq.Stats.Parsed)
			}
		}
	}
	settle(t, baseGoroutines)
}

// TestLimitReadAheadBound pins what a LIMIT costs with helpers: nothing
// more than sequentially. A LIMIT query drains sequentially whatever the
// helper budget, so the answer and every statistic, Candidates included,
// are the sequential run's: the drain reads no candidate past the one that
// fills the answer. A byte budget is spent as the sequential drain spends
// it: the budget that sufficed sequentially suffices, and one byte less
// does not.
func TestLimitReadAheadBound(t *testing.T) {
	e, q := drainFixture(t, 300, notChang)
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
			if g.Parsed != s.Parsed || g.ParsedBytes != s.ParsedBytes || g.Results != s.Results || g.Candidates != s.Candidates {
				t.Errorf("LIMIT %d, %d helpers: %d candidates, parsed %d (%d bytes), %d rows; sequentially %d, %d (%d bytes), %d rows",
					k, helpers, g.Candidates, g.Parsed, g.ParsedBytes, g.Results, s.Candidates, s.Parsed, s.ParsedBytes, s.Results)
			}
			if _, err := e.ExecuteContext(context.Background(), lq, Limits{MaxEvalBytes: s.ParsedBytes}); err != nil {
				t.Errorf("LIMIT %d, %d helpers: the sequential run's %d bytes no longer suffice: %v", k, helpers, s.ParsedBytes, err)
			}
			if _, err := e.ExecuteContext(context.Background(), lq, Limits{MaxEvalBytes: s.ParsedBytes - 1}); !errors.Is(err, qerr.ErrBudgetExceeded) {
				t.Errorf("LIMIT %d, %d helpers: %d bytes, one short of the sequential run's: %v", k, helpers, s.ParsedBytes-1, err)
			}
			restore()
		}
	}
}

// BenchmarkDrainParse times phase 2 alone on phase2_parse's shape: an
// Abstract CONTAINS of a rare word, which the paper's partial index
// (Reference, Key, Last_Name) cannot decide, at 20k references. Its 1 030
// candidates are evaluated once before the timer starts, and each iteration
// drains that set with no LIMIT: in parallel under -cpu 2 and up,
// sequentially under -cpu 1, where the helper budget is 0.
func BenchmarkDrainParse(b *testing.B) {
	content, _ := bibtex.Generate(bibtex.DefaultConfig(20000))
	cat := bibtex.Catalog()
	in, _, err := cat.Grammar.BuildInstance(text.NewDocument("corpus.bib", content),
		grammar.IndexSpec{Names: []string{bibtex.NTReference, bibtex.NTKey, bibtex.NTLastName}})
	if err != nil {
		b.Fatal(err)
	}
	e := New(cat, in)
	q := xsql.MustParse(`SELECT r FROM References r WHERE r.Abstract CONTAINS "term250"`)
	plan, _, err := e.cat.PrepareQuery(q).Plan(e.choice)
	if err != nil {
		b.Fatal(err)
	}
	vp := &plan.Vars[0]
	cands, err := e.ev.Eval(vp.Candidates)
	if err != nil {
		b.Fatal(err)
	}
	es := &execEnv{ctx: context.Background()}
	parsed := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := &Result{Plan: plan, eng: e}
		em := newEmitter(q, plan, res)
		if err := e.drainSet(es, plan, vp, cands, res, em); err != nil {
			b.Fatal(err)
		}
		em.finish()
		parsed += res.Stats.Parsed
	}
	b.ReportMetric(float64(parsed)/float64(b.N), "parsed/op")
}
