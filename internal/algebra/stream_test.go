package algebra_test

// Iterator-law property tests for the streaming evaluator (stream.go): the
// emitted sequence is canonical, exhaustion and Close are sticky, partially
// consumed pipelines release cleanly with no goroutine or buffer leaks, and
// optimizer rewrites — chain rewrites and operand reordering — never change
// the streamed result. The differential harness (internal/refeval/diff)
// covers streaming-vs-oracle agreement; these tests pin the iterator
// contract itself.

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"qof/internal/algebra"
	"qof/internal/index"
	"qof/internal/optimizer"
	"qof/internal/qerr"
	"qof/internal/qgen"
	"qof/internal/region"
)

// streamFixture builds the BibTeX qgen domain under its richest index spec
// plus an expression generator, the same corpus the differential harness
// uses.
func streamFixture(t testing.TB, seed int64) (*qgen.Domain, *index.Instance, *qgen.ExprGen) {
	t.Helper()
	d := qgen.Domains(1994)[0]
	in, _, err := d.Cat.Grammar.BuildInstance(d.Doc, d.Specs[0])
	if err != nil {
		t.Fatal(err)
	}
	return d, in, qgen.ExprGenFor(d, in.Names(), seed)
}

// TestStreamCanonicalOrder: the streaming pipeline must emit regions in
// canonical order (strictly increasing under Before, hence duplicate-free)
// and the drained sequence must equal the materializing result. After
// natural exhaustion, Next stays exhausted with a nil error.
func TestStreamCanonicalOrder(t *testing.T) {
	_, in, gen := streamFixture(t, 401)
	ev := algebra.NewEvaluator(in)
	for trial := 0; trial < 300; trial++ {
		e := gen.Expr()
		want, werr := ev.Eval(e)
		it, serr := ev.Stream(context.Background(), e, nil, nil)
		if (serr != nil) != (werr != nil) {
			t.Fatalf("%s: stream error %v, eval error %v", e, serr, werr)
		}
		if serr != nil {
			continue
		}
		var got []region.Region
		for {
			r, ok, err := it.Next()
			if err != nil {
				t.Fatalf("%s: Next: %v", e, err)
			}
			if !ok {
				break
			}
			if n := len(got); n > 0 && !got[n-1].Before(r) {
				t.Fatalf("%s: emitted %v after %v — not canonical order", e, r, got[n-1])
			}
			got = append(got, r)
		}
		// Exhaustion is sticky.
		for i := 0; i < 3; i++ {
			if _, ok, err := it.Next(); ok || err != nil {
				t.Fatalf("%s: Next after exhaustion = (%v, %v), want (false, nil)", e, ok, err)
			}
		}
		it.Close()
		if !region.FromRegions(got).Equal(want) {
			t.Fatalf("%s: streamed %v, materialized %v", e, got, want)
		}
	}
}

// TestStreamCloseAfterPartial: Close after partial consumption must make
// the pipeline terminal (Next reports exhausted), be idempotent, and leak
// no goroutines — the streaming pipeline is synchronous pull, so the
// goroutine count must return to its baseline after every abandoned stream.
func TestStreamCloseAfterPartial(t *testing.T) {
	base := runtime.NumGoroutine()
	_, in, gen := streamFixture(t, 402)
	ev := algebra.NewEvaluator(in)
	for trial := 0; trial < 200; trial++ {
		e := gen.Expr()
		it, err := ev.Stream(context.Background(), e, nil, nil)
		if err != nil {
			continue
		}
		// Consume a prefix, then abandon.
		for i := 0; i < trial%5; i++ {
			if _, ok, err := it.Next(); err != nil || !ok {
				break
			}
		}
		it.Close()
		it.Close() // idempotent
		if _, ok, _ := it.Next(); ok {
			t.Fatalf("%s: Next after Close still emits", e)
		}
	}
	waitStreamGoroutines(t, base)
}

// waitStreamGoroutines polls until the goroutine count returns to within
// slack of base, the same leak accounting the engine cancellation tests use.
func waitStreamGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d running, started with %d\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamOptimizerInvariance: rewriting an expression with the chain
// optimizer and swapping commutative operands must not change the streamed
// result — the optimizer picks among Theorem 3.6-equivalent forms, and the
// streaming operators must honor that for every operand order.
func TestStreamOptimizerInvariance(t *testing.T) {
	d, in, gen := streamFixture(t, 403)
	ev := algebra.NewEvaluator(in)
	for trial := 0; trial < 200; trial++ {
		e := gen.Expr()
		want, err := ev.StreamEval(context.Background(), e, nil, nil)
		if err != nil {
			continue
		}
		opt, _ := optimizer.OptimizeExpr(e, d.Cat.RIG)
		for i, variant := range []algebra.Expr{
			commuted(e),
			opt,
			commuted(opt),
		} {
			got, err := ev.StreamEval(context.Background(), variant, nil, nil)
			if err != nil {
				t.Fatalf("%s: variant %d (%s): %v", e, i, variant, err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s: variant %d (%s) streamed %v, original %v",
					e, i, variant, got, want)
			}
		}
	}
}

// commuted swaps the operands of every ∩ and ∪ in e.
func commuted(e algebra.Expr) algebra.Expr {
	switch e := e.(type) {
	case algebra.Binary:
		l, r := commuted(e.L), commuted(e.R)
		if e.Op == algebra.OpUnion || e.Op == algebra.OpIntersect {
			l, r = r, l
		}
		return algebra.Binary{Op: e.Op, L: l, R: r}
	case algebra.Unary:
		return algebra.Unary{Op: e.Op, Arg: commuted(e.Arg)}
	case algebra.Select:
		return algebra.Select{Mode: e.Mode, W: e.W, Arg: commuted(e.Arg)}
	case algebra.Near:
		return algebra.Near{E: commuted(e.E), To: commuted(e.To), K: e.K}
	case algebra.Freq:
		return algebra.Freq{Arg: commuted(e.Arg), W: e.W, N: e.N}
	default:
		return e
	}
}

// TestStreamBudgetLaws: the streaming budget charge of a full drain is
// deterministic, a budget one region below it trips the drain with an error
// wrapping qerr.ErrBudgetExceeded, and a sufficient budget changes nothing
// about the result. (Totals deliberately differ from materializing in both
// directions — no memo and no short-circuit on one side, early operand
// abandonment on the other — so the law under test is the stream's own
// metering, not cross-executor equality; result equality is covered by the
// differential harness.)
func TestStreamBudgetLaws(t *testing.T) {
	_, in, gen := streamFixture(t, 404)
	ev := algebra.NewEvaluator(in)
	checked := 0
	for trial := 0; trial < 200 && checked < 50; trial++ {
		e := gen.Expr()
		want, err := ev.StreamEval(context.Background(), e, nil, nil)
		if err != nil {
			continue
		}
		sb := algebra.NewBudget(1 << 40)
		got, err := ev.StreamEval(context.Background(), e, nil, sb)
		if err != nil {
			t.Fatalf("%s: budgeted stream: %v", e, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: sufficient budget changed the result: %v vs %v", e, got, want)
		}
		sCharged := sb.Used()
		sb2 := algebra.NewBudget(1 << 40)
		if _, err := ev.StreamEval(context.Background(), e, nil, sb2); err != nil || sb2.Used() != sCharged {
			t.Fatalf("%s: charge not deterministic: %d then %d (err %v)", e, sCharged, sb2.Used(), err)
		}
		if sCharged <= 1 {
			continue // nothing to trip
		}
		tripsOneShort(t, ev, e, sCharged)
		checked++
	}
	if checked == 0 {
		t.Fatal("no expression exercised the budget laws")
	}
}

// TestStreamCancellation: a context canceled mid-drain surfaces as an error
// from Next, and the error is sticky.
func TestStreamCancellation(t *testing.T) {
	_, in, gen := streamFixture(t, 405)
	ev := algebra.NewEvaluator(in)
	canceled := 0
	for trial := 0; trial < 100 && canceled < 20; trial++ {
		e := gen.Expr()
		ctx, cancel := context.WithCancel(context.Background())
		it, err := ev.Stream(ctx, e, nil, nil)
		if err != nil {
			cancel()
			continue
		}
		cancel() // cancel before the first pull: the pipeline must notice
		_, ok, err := it.Next()
		if ok || err == nil {
			// Pipelines poll every streamPollStride emissions; the first
			// pull always polls, so a pre-canceled context must surface.
			t.Fatalf("%s: Next on canceled context = (%v, %v)", e, ok, err)
		}
		if _, ok2, err2 := it.Next(); ok2 || err2 == nil {
			t.Fatalf("%s: canceled pipeline resumed: (%v, %v)", e, ok2, err2)
		}
		it.Close()
		canceled++
	}
	if canceled == 0 {
		t.Fatal("no expression exercised cancellation")
	}
}

// tripsOneShort: a drain of e that charges charged regions trips a budget of
// one region less.
func tripsOneShort(t *testing.T, ev *algebra.Evaluator, e algebra.Expr, charged int) {
	t.Helper()
	if charged <= 1 {
		return // NewBudget(0) is unlimited; nothing to trip
	}
	if _, err := ev.StreamEval(context.Background(), e, nil, algebra.NewBudget(charged-1)); !errors.Is(err, qerr.ErrBudgetExceeded) {
		t.Fatalf("%s: budget of %d: err %v, want ErrBudgetExceeded (charge is %d)", e, charged-1, err, charged)
	}
}

// TestStreamProbesMeterLikeTheSweeps: over a bare name the stream executor
// answers σ and ⊃ out of the name's set instead of streaming it, and
// charges the budget for the regions of the name it passes over as if it
// had. Each law is an exact total:
//
//   - σ over a name charges |N| + |answer|: the name, through a leaf tap
//     or passed by the probe, and the answer through the operator's tap.
//     σ_w of a word the text does not have opens nothing and charges 0.
//   - N ⊃ X for a non-empty disjoint N charges |N| + |answer| and what X
//     charged for the part of it the probe pulled: up to the first region
//     starting past N's last End, or the whole of X.
//   - Every other N ⊃ X and every N ⊂ X is one set evaluation, which
//     charges as EvalContext does, and its answer again as it flows out.
func TestStreamProbesMeterLikeTheSweeps(t *testing.T) {
	for _, d := range qgen.Domains(1994) {
		in, _, err := d.Cat.Grammar.BuildInstance(d.Doc, d.Specs[0])
		if err != nil {
			t.Fatal(err)
		}
		ev := algebra.NewEvaluator(in)
		gen := qgen.ExprGenFor(d, in.Names(), 406)
		// indexed draws an expression that names only indexed regions.
		indexed := func() algebra.Expr {
			for {
				x := gen.Expr()
				if _, err := ev.Eval(x); err == nil {
					return x
				}
			}
		}
		used := func(e algebra.Expr) (region.Set, int) {
			b := algebra.NewBudget(1 << 40)
			s, err := ev.StreamEval(context.Background(), e, nil, b)
			if err != nil {
				t.Fatalf("%s: %v", e, err)
			}
			want, err := ev.Eval(e)
			if err != nil || !s.Equal(want) {
				t.Fatalf("%s: streamed %v, set evaluation %v (err %v)", e, s, want, err)
			}
			return s, b.Used()
		}
		// setCharge is what one set evaluation of e charges.
		setCharge := func(e algebra.Expr) int {
			b := algebra.NewBudget(1 << 40)
			if _, err := ev.EvalContext(context.Background(), e, nil, b); err != nil {
				t.Fatalf("%s: %v", e, err)
			}
			return b.Used()
		}
		// pulled is what x's stream charges for the regions the ⊃ probe
		// over name pulls of it.
		pulled := func(name region.Set, x algebra.Expr) int {
			b := algebra.NewBudget(1 << 40)
			it, err := ev.Stream(context.Background(), x, nil, b)
			if err != nil {
				t.Fatalf("%s: %v", x, err)
			}
			defer it.Close()
			end := name.At(name.Len() - 1).End
			for {
				r, ok, err := it.Next()
				if err != nil {
					t.Fatalf("%s: %v", x, err)
				}
				if !ok || r.Start > end {
					return b.Used()
				}
			}
		}
		// check holds e to its law and its charge to a limit, not only a
		// count: e passes under a budget of exactly what it charged and
		// trips one region short of it.
		check := func(e algebra.Expr, cost, want int) {
			if cost != want {
				t.Fatalf("%s: charged %d, want %d", e, cost, want)
			}
			if _, err := ev.StreamEval(context.Background(), e, nil, algebra.NewBudget(cost)); err != nil {
				t.Fatalf("%s: budget of %d, its own charge: %v", e, cost, err)
			}
			tripsOneShort(t, ev, e, cost)
		}
		probed := 0
		for _, name := range in.Names() {
			set := in.MustRegion(name)
			n := algebra.Name{Ident: name}
			for _, w := range append(d.Words, d.Prefixes...) {
				for _, mode := range []algebra.SelMode{algebra.SelContains, algebra.SelEquals, algebra.SelPrefix} {
					e := algebra.Select{Mode: mode, W: w, Arg: n}
					got, cost := used(e)
					want := set.Len() + got.Len()
					if mode == algebra.SelContains && in.Words().Postings(w).Len() == 0 {
						want = 0
					}
					check(e, cost, want)
				}
			}
			for i := 0; i < 12; i++ {
				x := indexed()
				e := algebra.Binary{Op: algebra.OpIncluding, L: n, R: x}
				got, cost := used(e)
				if set.IsEmpty() || !set.Disjoint() {
					check(e, cost, setCharge(e)+got.Len())
					continue
				}
				check(e, cost, set.Len()+got.Len()+pulled(set, x))
				probed++
			}
			for i := 0; i < 12; i++ {
				e := algebra.Binary{Op: algebra.OpIncluded, L: n, R: indexed()}
				got, cost := used(e)
				check(e, cost, setCharge(e)+got.Len())
			}
		}
		if probed == 0 {
			t.Fatalf("%s: nothing probed", d.Name)
		}
	}
}

// TestStreamPlansHoldOnlyLazyOperators walks the candidate expression of
// every variable of every plan the query generator's queries compile to,
// over every domain and index specification, and pins the operators a plan
// may hold: names, σ, ∪, ∩, −, ⊃ and ⊃d. The stream is lazy over names, σ
// and Name ⊃ X for a disjoint name; every other node of a plan — ∪, ∩, −,
// a ⊃ over anything else, ⊃d — is one set evaluation behind a leaf tap
// (docs/STREAMING.md). ⊃d's left operand is a bare name, and its right side
// was always materialized. A plan that held an operator outside this list
// would change what a LIMIT over it costs without this list saying so.
func TestStreamPlansHoldOnlyLazyOperators(t *testing.T) {
	const queriesPerSpec = 400
	seen := map[string]int{}
	for _, d := range qgen.Domains(1994) {
		for si, spec := range d.Specs {
			in, _, err := d.Cat.Grammar.BuildInstance(d.Doc, spec)
			if err != nil {
				t.Fatal(err)
			}
			gen := qgen.NewQueryGen(d, int64(407+si))
			for i := 0; i < queriesPerSpec; i++ {
				q := gen.Query()
				plan, err := d.Cat.Compile(q, in)
				if err != nil {
					continue // the generator's rare uncompilable draw
				}
				for _, v := range plan.Vars {
					if v.Candidates == nil {
						continue
					}
					algebra.Walk(v.Candidates, func(x algebra.Expr) {
						kind := ""
						switch x := x.(type) {
						case algebra.Name:
							kind = "name"
						case algebra.Select:
							kind = "σ"
						case algebra.Binary:
							switch x.Op {
							case algebra.OpUnion, algebra.OpIntersect, algebra.OpDiff, algebra.OpIncluding:
								kind = x.Op.Pretty()
							case algebra.OpDirIncluding:
								kind = x.Op.Pretty()
								if _, ok := x.L.(algebra.Name); !ok {
									t.Errorf("%s %s: %s: ⊃d's left operand %s is not a name", d.Name, q, v.Candidates, x.L)
								}
							}
						}
						if kind == "" {
							t.Fatalf("%s spec %d: %s: candidates %s hold %s, which no plan is known to hold", d.Name, si, q, v.Candidates, x)
						}
						seen[kind]++
					})
				}
			}
		}
	}
	for _, kind := range []string{"name", "σ", "∪", "∩", "−", "⊃", "⊃d"} {
		if seen[kind] == 0 {
			t.Errorf("no plan held %s: the walk is vacuous for it (%v)", kind, seen)
		}
	}
	t.Logf("operator nodes in candidate plans: %v", seen)
}
