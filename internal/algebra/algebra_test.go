package algebra

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"qof/internal/index"
	"qof/internal/region"
	"qof/internal/testutil/nesting"
	"qof/internal/text"
)

// fixture builds a small two-reference instance shaped like the paper's
// BIBTEX example: Reference ⊃ Authors|Editors ⊃ Name ⊃ First/Last_Name.
//
// Layout (one line per reference):
//
//	[ AUTHOR Verena Chang EDITOR Alan Corliss ]
//	[ AUTHOR Gaston Corliss EDITOR Yf Chang ]
func fixture(t testing.TB) *index.Instance {
	t.Helper()
	content := "[ AUTHOR Verena Chang EDITOR Alan Corliss ]\n" +
		"[ AUTHOR Gaston Corliss EDITOR Yf Chang ]\n"
	doc := text.NewDocument("fixture.bib", content)

	var refs, authors, editors, names, firsts, lasts []region.Region
	lineStart := 0
	for _, line := range strings.SplitAfter(content, "\n") {
		if !strings.HasPrefix(line, "[") {
			continue
		}
		end := lineStart + strings.IndexByte(line, ']') + 1
		refs = append(refs, region.Of(lineStart, end))
		aStart := lineStart + strings.Index(line, "AUTHOR")
		eStart := lineStart + strings.Index(line, "EDITOR")
		authors = append(authors, region.Of(aStart, eStart-1))
		editors = append(editors, region.Of(eStart, end-2))

		addName := func(kwStart, kwLen, limit int) {
			nStart := kwStart + kwLen + 1
			names = append(names, region.Of(nStart, limit))
			sp := nStart + strings.IndexByte(content[nStart:limit], ' ')
			firsts = append(firsts, region.Of(nStart, sp))
			lasts = append(lasts, region.Of(sp+1, limit))
		}
		addName(aStart, len("AUTHOR"), eStart-1)
		addName(eStart, len("EDITOR"), end-2)
		lineStart += len(line)
	}
	in := index.New(index.NewWordIndex(doc), map[string]region.Set{
		"Reference":  region.FromRegions(refs),
		"Authors":    region.FromRegions(authors),
		"Editors":    region.FromRegions(editors),
		"Name":       region.FromRegions(names),
		"First_Name": region.FromRegions(firsts),
		"Last_Name":  region.FromRegions(lasts),
	}, nil)
	if err := nesting.Check(in.Sets()); err != nil {
		t.Fatalf("fixture instance is not properly nested: %v", err)
	}
	return in
}

func evalStr(t *testing.T, in *index.Instance, src string) region.Set {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	got, err := NewEvaluator(in).Eval(e)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return got
}

func TestPaperChangQuery(t *testing.T) {
	in := fixture(t)
	// The paper's running query: references where Chang is an author.
	// Only the first reference qualifies (in the second, Chang edits).
	got := evalStr(t, in, `Reference > Authors > contains(Last_Name, "Chang")`)
	if got.Len() != 1 || got.At(0).Start != 0 {
		t.Fatalf("Chang-as-author = %v, want first reference only", got)
	}
	// The unoptimized ⊃d form gives the same answer (Prop 3.5 soundness).
	direct := evalStr(t, in, `Reference >d Authors >d Name >d contains(Last_Name, "Chang")`)
	if !direct.Equal(got) {
		t.Fatalf("direct chain = %v, want %v", direct, got)
	}
	// Without the Authors filter, both references qualify.
	both := evalStr(t, in, `Reference > contains(Last_Name, "Chang")`)
	if both.Len() != 2 {
		t.Fatalf("Chang-anywhere = %v, want both references", both)
	}
}

func TestPaperUnionExample(t *testing.T) {
	in := fixture(t)
	// (Reference ⊃ Authors ⊃ σChang(Last_Name)) ∪ (Reference ⊃ Editors ⊃ σCorliss(Last_Name))
	got := evalStr(t, in,
		`(Reference > Authors > contains(Last_Name, "Chang")) + (Reference > Editors > contains(Last_Name, "Corliss"))`)
	if got.Len() != 1 || got.At(0).Start != 0 {
		t.Fatalf("union query = %v", got)
	}
}

func TestProjectionChain(t *testing.T) {
	in := fixture(t)
	// Last names of authors: Last_Name ⊂ Authors ⊂ Reference.
	got := evalStr(t, in, `Last_Name < Authors < Reference`)
	if got.Len() != 2 {
		t.Fatalf("author last names = %v", got)
	}
	doc := in.Document()
	var texts []string
	for _, r := range got.Regions() {
		texts = append(texts, doc.Slice(int(r.Start), int(r.End)))
	}
	if texts[0] != "Chang" || texts[1] != "Corliss" {
		t.Fatalf("texts = %v", texts)
	}
	// Direct-chain version agrees.
	direct := evalStr(t, in, `Last_Name <d Name <d Authors <d Reference`)
	if !direct.Equal(got) {
		t.Fatalf("direct projection = %v, want %v", direct, got)
	}
}

func TestSetAndNestOps(t *testing.T) {
	in := fixture(t)
	if got := evalStr(t, in, `Authors + Editors`); got.Len() != 4 {
		t.Errorf("union = %v", got)
	}
	if got := evalStr(t, in, `Authors & Editors`); !got.IsEmpty() {
		t.Errorf("intersect = %v", got)
	}
	if got := evalStr(t, in, `Name - (Name < Editors)`); got.Len() != 2 {
		t.Errorf("author names via diff = %v", got)
	}
	if got := evalStr(t, in, `outermost(Reference + Name)`); got.Len() != 2 {
		t.Errorf("outermost = %v", got)
	}
	if got := evalStr(t, in, `innermost(Reference + Name + Last_Name)`); got.Len() != 4 {
		t.Errorf("innermost = %v", got)
	}
	if got := evalStr(t, in, `word("Chang")`); got.Len() != 2 {
		t.Errorf("word = %v", got)
	}
	if got := evalStr(t, in, `prefix("Cor")`); got.Len() != 2 {
		t.Errorf("prefix = %v", got)
	}
	if got := evalStr(t, in, `equals(Last_Name, "Chang")`); got.Len() != 2 {
		t.Errorf("equals = %v", got)
	}
}

func TestEvalNotIndexed(t *testing.T) {
	full := fixture(t)
	sets := map[string]region.Set{}
	for _, n := range full.Names() {
		if n != "Name" {
			sets[n] = full.MustRegion(n)
		}
	}
	in := index.New(full.Words(), sets, nil)
	_, err := NewEvaluator(in).Eval(MustParse(`Reference > Name`))
	if !errors.Is(err, ErrNotIndexed) {
		t.Fatalf("err = %v, want ErrNotIndexed", err)
	}
}

func TestEvalStats(t *testing.T) {
	in := fixture(t)
	var st Stats
	if _, err := NewEvaluator(in).EvalStats(MustParse(`Reference >d Authors > contains(Last_Name, "Chang")`), &st); err != nil {
		t.Fatal(err)
	}
	if st.Ops != 3 || st.DirectOps != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.RegionsTouched == 0 {
		t.Error("RegionsTouched = 0")
	}
}

func TestParsePrintRoundTrip(t *testing.T) {
	exprs := []string{
		`Reference`,
		`Reference > Authors`,
		`Reference >d Authors >d Name >d contains(Last_Name, "Chang")`,
		`Last_Name <d Name <d Authors <d Reference`,
		`(A + B) - C & D`,
		`A + (B - C)`,
		`(A > B) > C`,
		`A > B > C`,
		`innermost(outermost(A + B))`,
		`word("Chang") + prefix("Cor")`,
		`equals(Last_Name, "Chang")`,
		`contains(A & B, "w")`,
	}
	for _, src := range exprs {
		e1, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		printed := e1.String()
		e2, err := Parse(printed)
		if err != nil {
			t.Errorf("reparse of %q (printed %q): %v", src, printed, err)
			continue
		}
		if !Equal(e1, e2) {
			t.Errorf("round trip %q -> %q changed the tree", src, printed)
		}
	}
}

func TestParseRightAssociativity(t *testing.T) {
	// A > B > C must parse as A > (B > C) per the paper.
	e := MustParse(`A > B > C`)
	b, ok := e.(Binary)
	if !ok || b.Op != OpIncluding {
		t.Fatalf("parse shape: %v", e)
	}
	if _, ok := b.L.(Name); !ok {
		t.Fatalf("left of > is %T, want Name", b.L)
	}
	if inner, ok := b.R.(Binary); !ok || inner.Op != OpIncluding {
		t.Fatalf("right of > is %v, want B > C", b.R)
	}
	// (A > B) > C keeps the explicit grouping.
	e2 := MustParse(`(A > B) > C`)
	b2 := e2.(Binary)
	if _, ok := b2.L.(Binary); !ok {
		t.Fatalf("(A > B) > C mis-parsed: %v", e2)
	}
	if Equal(e, e2) {
		t.Fatal("grouping lost")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`>`,
		`A >`,
		`A + `,
		`(A`,
		`A)`,
		`word(`,
		`word(A)`,
		`contains(A)`,
		`contains(A, B)`,
		`unknownfn(A)`,
		`"unterminated`,
		`A ? B`,
		`A B`,
		`innermost(A`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseOpLexing(t *testing.T) {
	// ">d" only lexes as direct inclusion when not starting an identifier.
	e := MustParse(`A >d B`)
	if b := e.(Binary); b.Op != OpDirIncluding {
		t.Fatalf("A >d B op = %v", b.Op)
	}
	e2 := MustParse(`A > dB`)
	b2 := e2.(Binary)
	if b2.Op != OpIncluding {
		t.Fatalf("A > dB op = %v", b2.Op)
	}
	if n, ok := b2.R.(Name); !ok || n.Ident != "dB" {
		t.Fatalf("A > dB right = %v", b2.R)
	}
	if b3 := MustParse(`A <d B`).(Binary); b3.Op != OpDirIncluded {
		t.Fatalf("A <d B op = %v", b3.Op)
	}
}

func TestChainBuilders(t *testing.T) {
	e := Chain([]string{"Reference", "Authors", "Last_Name"},
		[]BinOp{OpIncluding, OpIncluding}, "Chang")
	want := MustParse(`Reference > Authors > contains(Last_Name, "Chang")`)
	if !Equal(e, want) {
		t.Errorf("Chain = %v, want %v", e, want)
	}
	u := UniformChain(OpDirIncluding, "", "A", "B", "C")
	if !Equal(u, MustParse(`A >d B >d C`)) {
		t.Errorf("UniformChain = %v", u)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Chain with mismatched ops must panic")
			}
		}()
		Chain([]string{"A"}, []BinOp{OpIncluding}, "")
	}()
}

func TestNamesAndWalk(t *testing.T) {
	e := MustParse(`Reference > Authors > contains(Last_Name, "Chang") + Reference`)
	names := Names(e)
	if len(names) != 3 || names[0] != "Reference" || names[1] != "Authors" || names[2] != "Last_Name" {
		t.Errorf("Names = %v", names)
	}
}

// TestCostAtLeast checks the early-exit threshold walk against the full
// Cost walk at every threshold around each expression's true cost.
func TestCostAtLeast(t *testing.T) {
	exprs := []string{
		`Reference`,
		`contains(Reference, "Chang")`,
		`Reference > Authors > contains(Last_Name, "Chang")`,
		`Reference >d Authors >d Name >d contains(Last_Name, "Chang")`,
		`Reference > Authors + Reference > Editors - contains(Reference, "Chang")`,
		`near(Reference > Authors, Editors, 5)`,
		`freq(Reference, "Chang", 2)`,
	}
	for _, src := range exprs {
		e := MustParse(src)
		full := Cost(e)
		for min := 0; min <= full+3; min++ {
			if got, want := CostAtLeast(e, min), full >= min; got != want {
				t.Errorf("CostAtLeast(%s, %d) = %v, want %v (Cost=%d)", src, min, got, want, full)
			}
		}
	}
}

func TestCostModel(t *testing.T) {
	cheap := MustParse(`Reference > Authors > contains(Last_Name, "Chang")`)
	costly := MustParse(`Reference >d Authors >d Name >d contains(Last_Name, "Chang")`)
	if Cost(cheap) >= Cost(costly) {
		t.Errorf("Cost(optimized)=%d must be < Cost(original)=%d", Cost(cheap), Cost(costly))
	}
	// Shorter chains are cheaper.
	shorter := MustParse(`Reference > contains(Last_Name, "Chang")`)
	if Cost(shorter) >= Cost(cheap) {
		t.Errorf("Cost(shorter)=%d must be < Cost(longer)=%d", Cost(shorter), Cost(cheap))
	}
}

func TestPretty(t *testing.T) {
	e := MustParse(`Reference >d Authors > contains(Last_Name, "Chang")`)
	got := Pretty(e)
	for _, want := range []string{"⊃d", "⊃", `σ"Chang"`} {
		if !strings.Contains(got, want) {
			t.Errorf("Pretty = %q, missing %q", got, want)
		}
	}
	if Pretty(MustParse(`innermost(A) + outermost(B)`)) != "ι(A) ∪ ω(B)" {
		t.Errorf("Pretty nest = %q", Pretty(MustParse(`innermost(A) + outermost(B)`)))
	}
}

func TestLayeredDirectMatchesUniverse(t *testing.T) {
	in := fixture(t)
	exprs := []string{
		`Reference >d Authors`,
		`Reference >d Name`,
		`Authors >d Name`,
		`Authors >d Last_Name`,
		`Reference >d Authors >d Name >d contains(Last_Name, "Chang")`,
	}
	for _, src := range exprs {
		e := MustParse(src)
		std := NewEvaluator(in)
		lay := NewEvaluator(in)
		lay.UseLayeredDirect = true
		a, err := std.Eval(e)
		if err != nil {
			t.Fatal(err)
		}
		b, err := lay.Eval(e)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Errorf("%s: sweep=%v layered=%v", src, a, b)
		}
	}
}

func TestLayeredDirectMatchesNaiveRandomNested(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 120; trial++ {
		in, setNames := randomNestedInstance(rng)
		all := region.Empty
		for _, s := range in.Sets() {
			all = all.Union(s)
		}
		for i := 0; i < 3; i++ {
			rn := setNames[rng.Intn(len(setNames))]
			sn := setNames[rng.Intn(len(setNames))]
			R, S := in.MustRegion(rn), in.MustRegion(sn)
			ev := NewEvaluator(in)
			got, err := ev.layeredDirectlyIncluding(nil, R, S)
			if err != nil {
				t.Fatalf("trial %d: %s >d %s: %v", trial, rn, sn, err)
			}
			want := region.NaiveDirectlyIncluding(R, S, all)
			if !got.Equal(want) {
				t.Fatalf("trial %d: %s >d %s: layered=%v naive=%v (named %v)",
					trial, rn, sn, got, want, all)
			}
			if sweep, err := region.DirectlyIncluding(R, S, in.Sets(), nil); err != nil || !sweep.Equal(want) {
				t.Fatalf("trial %d: %s >d %s: sweep=%v (err %v) naive=%v", trial, rn, sn, sweep, err, want)
			}
		}
	}
}

// randomNestedInstance builds an instance over a synthetic document with
// properly nested region names A, B, C assigned at random.
func randomNestedInstance(rng *rand.Rand) (*index.Instance, []string) {
	content := strings.Repeat("x ", 64)
	doc := text.NewDocument("rand", content)
	names := []string{"A", "B", "C"}
	groups := make(map[string][]region.Region)
	var subdivide func(lo, hi, depth int)
	subdivide = func(lo, hi, depth int) {
		if hi-lo < 2 || depth > 5 {
			return
		}
		n := names[rng.Intn(len(names))]
		groups[n] = append(groups[n], region.Of(lo, hi))
		mid := lo + 1 + rng.Intn(hi-lo-1)
		if rng.Intn(4) > 0 {
			subdivide(lo, mid, depth+1)
		}
		if rng.Intn(4) > 0 {
			subdivide(mid, hi, depth+1)
		}
	}
	subdivide(0, len(content), 0)
	sets := make(map[string]region.Set)
	for _, n := range names {
		sets[n] = region.FromRegions(groups[n])
	}
	return index.New(index.NewWordIndex(doc), sets, nil), names
}

func TestAlgebraParseNeverPanics(t *testing.T) {
	f := func(s string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		e, err := Parse(s)
		return err != nil || e != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
