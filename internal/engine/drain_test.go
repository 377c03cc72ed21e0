package engine_test

// The phase-2 drain at its edges: a failure on the workers' side of a chunk
// boundary, and plans that never hand a candidate to a worker.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"qof/internal/algebra"
	"qof/internal/engine"
	"qof/internal/faultinject"
	"qof/internal/grammar"
	"qof/internal/pool"
	"qof/internal/qerr"
	"qof/internal/testutil"
	"qof/internal/xsql"
)

// TestPhase2FaultsAtChunkBoundaries fires the engine.phase2 failpoint — an
// error, a panic, or a cancel seen by the next poll — at the k-th candidate
// processed, for k at the first candidates and on both sides of the chunk
// boundaries, on a single-variable query and on a join, whose variables'
// candidates go through the same drain. The query fails as it does
// sequentially: errors.Is matches and, except for a panic, whose message
// names whichever candidate a worker had, so does the text. No stream or
// goroutine is left behind.
func TestPhase2FaultsAtChunkBoundaries(t *testing.T) {
	defer faultinject.Reset()
	f := testutil.NewBibFixture(t, 200, paperPartialIndex, nil)
	// Every reference is a candidate, and parsed: once, or once per variable.
	for _, src := range []string{valueJoinQuery, yearJoinQuery} {
		q := xsql.MustParse(src)
		if _, err := f.Eng.Execute(q); err != nil {
			t.Fatal(err)
		}
		faultsAtChunkBoundaries(t, f.Eng, q)
	}
}

func faultsAtChunkBoundaries(t *testing.T, eng *engine.Engine, q *xsql.Query) {
	baseGoroutines, baseStreams := runtime.NumGoroutine(), algebra.OpenStreams()
	for _, k := range []int{1, 2, 3, 4, 63, 64, 65, 127, 128} {
		for kind, want := range map[string]error{
			"error":  faultinject.ErrInjected,
			"panic":  qerr.ErrInternal,
			"cancel": context.Canceled,
		} {
			var seqErr error
			for _, par := range []int{1, 4} {
				t.Cleanup(pool.SetHelpers(par - 1))
				ctx, spec := context.Context(context.Background()), fmt.Sprintf("engine.phase2=%s@%d", kind, k)
				if kind == "cancel" {
					// The delay of nothing only counts candidates for the cancel.
					ctx, spec = cancelAfterHits{Context: ctx, k: uint64(k), done: make(chan struct{})}, "engine.phase2=delay:0s"
				}
				if err := faultinject.Configure(spec); err != nil {
					t.Fatal(err)
				}
				_, err := eng.ExecuteContext(ctx, q, engine.Limits{})
				faultinject.Reset()
				if !errors.Is(err, want) {
					t.Fatalf("%s: %s at %d, parallelism %d: %v, want %v", q, kind, k, par, err, want)
				}
				if par == 1 {
					seqErr = err
				} else if kind != "panic" && err.Error() != seqErr.Error() {
					t.Errorf("%s: %s at %d: parallelism %d fails with %q, sequentially %q", q, kind, k, par, err, seqErr)
				}
			}
		}
	}
	if n := algebra.OpenStreams(); n != baseStreams {
		t.Errorf("%d streams open, %d before", n, baseStreams)
	}
	waitGoroutines(t, baseGoroutines)
}

// TestUnparsedPlanStartsNoGoroutine: with three helpers a plan that parses
// its candidates hands chunks to helpers, and one that reads nothing of
// them (an exact whole-object select) processes every candidate on the
// caller's goroutine and takes none. Neither starts a goroutine.
func TestUnparsedPlanStartsNoGoroutine(t *testing.T) {
	t.Cleanup(pool.SetHelpers(3))
	for _, c := range []struct {
		name   string
		spec   grammar.IndexSpec
		parses bool
	}{
		{"exact whole-object select", grammar.IndexSpec{}, false},
		{"inexact select", paperPartialIndex, true},
	} {
		f := testutil.NewBibFixture(t, 200, c.spec, nil)
		q := xsql.MustParse(changAuthorQuery)
		probe := testutil.NewGoroutineProbe()
		base := runtime.NumGoroutine()
		res, err := f.Eng.ExecuteContext(probe, q, engine.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if (res.Stats.Parsed > 0) != c.parses || res.Stats.Candidates < 2 {
			t.Fatalf("%s: not the plan under test: %+v", c.name, res.Stats)
		}
		switch busy := probe.MaxBusy(); {
		case c.parses && busy == 0:
			t.Errorf("%s: the probe saw no helper; it cannot see one either", c.name)
		case !c.parses && busy > 0:
			t.Errorf("%s: %d helpers taken for a plan that parses nothing", c.name, busy)
		}
		if started := probe.Max() - base; started > 0 {
			t.Errorf("%s: %d goroutines started", c.name, started)
		}
	}
}
