package algebra

import (
	"context"
	"errors"
	"testing"

	"qof/internal/lru"
	"qof/internal/qerr"
	"qof/internal/region"
)

const changChain = `Reference > Authors > contains(Last_Name, "Chang")`

func TestEvalContextCanceled(t *testing.T) {
	in := fixture(t)
	ev := NewEvaluator(in)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var st Stats
	_, err := ev.EvalContext(ctx, MustParse(changChain), &st, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("EvalContext on canceled ctx: %v, want context.Canceled", err)
	}
	// The evaluator stays usable after the abort.
	got, err := ev.EvalContext(context.Background(), MustParse(changChain), &st, nil)
	if err != nil {
		t.Fatalf("eval after cancel: %v", err)
	}
	if got.Len() != 1 {
		t.Fatalf("eval after cancel: %d results, want 1", got.Len())
	}
}

func TestEvalContextBackgroundMatchesEval(t *testing.T) {
	in := fixture(t)
	want := evalStr(t, in, changChain)
	var st Stats
	got, err := NewEvaluator(in).EvalContext(context.Background(), MustParse(changChain), &st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("EvalContext = %v, Eval = %v", got, want)
	}
}

func TestBudgetExceeded(t *testing.T) {
	in := fixture(t)
	ev := NewEvaluator(in)
	var st Stats
	// The chain touches several sets of 2-4 regions each; one region of
	// cumulative allowance cannot cover it.
	_, err := ev.EvalContext(context.Background(), MustParse(changChain), &st, NewBudget(1))
	if !errors.Is(err, qerr.ErrBudgetExceeded) {
		t.Fatalf("tiny budget: %v, want ErrBudgetExceeded", err)
	}
	// A generous budget does not interfere.
	got, err := ev.EvalContext(context.Background(), MustParse(changChain), &st, NewBudget(1_000_000))
	if err != nil {
		t.Fatalf("generous budget: %v", err)
	}
	if got.Len() != 1 {
		t.Fatalf("generous budget: %d results, want 1", got.Len())
	}
}

func TestBudgetIsDeterministic(t *testing.T) {
	in := fixture(t)
	// Find the exact allowance the chain needs: below it the query fails,
	// at it the query succeeds — on every run.
	need := -1
	for n := 1; n < 200; n++ {
		var st Stats
		_, err := NewEvaluator(in).EvalContext(context.Background(), MustParse(changChain), &st, NewBudget(n))
		if err == nil {
			need = n
			break
		}
		if !errors.Is(err, qerr.ErrBudgetExceeded) {
			t.Fatalf("budget %d: unexpected error %v", n, err)
		}
	}
	if need <= 1 {
		t.Fatalf("could not find the budget threshold (need=%d)", need)
	}
	for i := 0; i < 3; i++ {
		var st Stats
		if _, err := NewEvaluator(in).EvalContext(context.Background(), MustParse(changChain), &st, NewBudget(need)); err != nil {
			t.Fatalf("budget %d run %d: %v", need, i, err)
		}
		if _, err := NewEvaluator(in).EvalContext(context.Background(), MustParse(changChain), &st, NewBudget(need-1)); !errors.Is(err, qerr.ErrBudgetExceeded) {
			t.Fatalf("budget %d run %d: %v, want ErrBudgetExceeded", need-1, i, err)
		}
	}
}

func TestNewBudgetUnlimited(t *testing.T) {
	if NewBudget(0) != nil || NewBudget(-5) != nil {
		t.Fatal("non-positive budgets must be nil (unlimited)")
	}
	var b *Budget
	if err := b.charge(1 << 30); err != nil {
		t.Fatalf("nil budget charged: %v", err)
	}
}

// TestFailedEvalPublishesNothing is the cache-safety invariant: an
// evaluation killed by cancellation or a budget must not leave any of its
// subexpression results in the cross-query cache, even those computed
// before the abort.
func TestFailedEvalPublishesNothing(t *testing.T) {
	in := fixture(t)
	for name, run := range map[string]func(ev *Evaluator) error{
		"canceled": func(ev *Evaluator) error {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			var st Stats
			_, err := ev.EvalContext(ctx, MustParse(changChain), &st, nil)
			return err
		},
		"budget": func(ev *Evaluator) error {
			var st Stats
			_, err := ev.EvalContext(context.Background(), MustParse(changChain), &st, NewBudget(1))
			return err
		},
	} {
		cache := lru.New[string, region.Set](256, "", "")
		ev := NewEvaluator(in)
		ev.Results = cache
		if err := run(ev); err == nil {
			t.Fatalf("%s: evaluation unexpectedly succeeded", name)
		}
		if cache.Len() != 0 {
			t.Fatalf("%s: failed evaluation published %d cache entries", name, cache.Len())
		}
		// The same evaluator then succeeds and only then publishes.
		var st Stats
		if _, err := ev.EvalContext(context.Background(), MustParse(changChain), &st, nil); err != nil {
			t.Fatalf("%s: eval after failure: %v", name, err)
		}
		if cache.Len() == 0 {
			t.Fatalf("%s: successful evaluation published nothing", name)
		}
	}
}

// TestRegionCtlAborts drives the Ctl kernel variants through the evaluator
// with a checker that trips after a fixed number of polls, proving the
// abort path of each kernel returns the checker's error.
func TestCheckerErrorPropagates(t *testing.T) {
	in := fixture(t)
	ev := NewEvaluator(in)
	boom := errors.New("boom")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(boom)
	var st Stats
	_, err := ev.EvalContext(ctx, MustParse(changChain), &st, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !errors.Is(context.Cause(ctx), boom) {
		t.Fatalf("cause = %v, want boom", context.Cause(ctx))
	}
}

// TestProbeTapSearchesOnlyUnderABudget: σ_w over a disjoint name streams as
// region.HoldingIter behind tapOver, which finds the name regions each answer
// passed with a search of the name — work done to charge a budget. A pipeline
// built without a budget keeps no name to search, so its drain does no
// per-region search; a budgeted one keeps the whole name and charges it.
func TestProbeTapSearchesOnlyUnderABudget(t *testing.T) {
	in := fixture(t)
	ev := NewEvaluator(in)
	name := in.MustRegion("Last_Name")
	e := MustParse(`contains(Last_Name, "Chang")`)
	probeTap := func(b *Budget) *tapIter {
		t.Helper()
		it, err := ev.Stream(context.Background(), e, nil, b)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(it.Close)
		tap, ok := it.(*rootIter).Iterator.(*tapIter)
		if !ok {
			t.Fatalf("%s did not stream as a probe behind a tap: %T", e, it.(*rootIter).Iterator)
		}
		return tap
	}
	if tap := probeTap(nil); tap.over != nil {
		t.Errorf("unbudgeted probe keeps %d name regions to search", len(tap.over))
	}
	b := NewBudget(1 << 20)
	tap := probeTap(b)
	if len(tap.over) != name.Len() {
		t.Fatalf("budgeted probe keeps %d name regions, the name has %d", len(tap.over), name.Len())
	}
	got, err := region.Materialize(tap)
	if err != nil || got.IsEmpty() {
		t.Fatalf("drain: %v, %v", got, err)
	}
	if want := got.Len() + name.Len(); b.Used() != want {
		t.Errorf("budgeted probe charged %d, want its answers and the name: %d", b.Used(), want)
	}
}
