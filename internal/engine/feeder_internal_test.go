package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"qof/internal/bibtex"
	"qof/internal/grammar"
	"qof/internal/qerr"
	"qof/internal/region"
	"qof/internal/text"
	"qof/internal/xsql"
)

// panicIter panics on its k-th Next call, the way an operator bug deep in a
// phase-1 pipeline would surface on the phase-2 feeder goroutine.
type panicIter struct {
	region.Iterator
	calls, k int
}

func (it *panicIter) Next() (region.Region, bool, error) {
	if it.calls++; it.calls == it.k {
		panic(fmt.Sprintf("injected panic on Next call %d", it.k))
	}
	return it.Iterator.Next()
}

// TestParallelFeederPanicIsInternalError drives the parallel phase-2 drain
// with a candidate iterator that panics on the feeder goroutine. The feeder's
// recover must turn the panic into qerr.ErrInternal for this query alone:
// without it the panic kills the process. No worker may outlive the call,
// and the engine must answer the next query.
func TestParallelFeederPanicIsInternalError(t *testing.T) {
	content, _ := bibtex.Generate(bibtex.DefaultConfig(120))
	doc := text.NewDocument("corpus.bib", content)
	cat := bibtex.Catalog()
	in, _, err := cat.Grammar.BuildInstance(doc, grammar.IndexSpec{Names: []string{"Reference"}})
	if err != nil {
		t.Fatal(err)
	}
	e := New(cat, in)
	q := xsql.MustParse(`SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`)
	want, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := e.cat.PrepareQuery(q).Plan(e.indexingChoice())
	if err != nil {
		t.Fatal(err)
	}
	refs := in.MustRegion("Reference")
	for _, par := range []int{2, 4} {
		for _, k := range []int{1, 3} {
			t.Run(fmt.Sprintf("par=%d/k=%d", par, k), func(t *testing.T) {
				e.Parallelism = par
				base := runtime.NumGoroutine()
				src := &panicIter{Iterator: refs.Iter(), k: k}
				es := &execEnv{ctx: context.Background()}
				res := &Result{Plan: plan, eng: e}
				_, complete, err := e.streamPhase2(es, q, plan, &plan.Vars[0], src, res)
				src.Close()
				if !errors.Is(err, qerr.ErrInternal) || complete {
					t.Fatalf("streamPhase2 = complete %v, err %v; want an ErrInternal failure", complete, err)
				}
				for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
					if time.Now().After(deadline) {
						t.Fatalf("goroutine leak: %d running, started with %d", runtime.NumGoroutine(), base)
					}
					time.Sleep(10 * time.Millisecond)
				}
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
