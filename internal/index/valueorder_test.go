package index_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"qof/internal/index"
	"qof/internal/qgen"
	"qof/internal/region"
	"qof/internal/text"
)

// plain returns s without the memo an instance attaches, so selections over
// it run the compare loop: the reference the value order is checked against.
func plain(s region.Set) region.Set { return region.FromRegions(s.Regions()) }

// checkSelections compares σ_= and σ_prefix through the value order with the
// compare loop, for every constant.
func checkSelections(t *testing.T, where string, x *index.WordIndex, s region.Set, constants []string) {
	t.Helper()
	ref := plain(s)
	for _, c := range constants {
		if got, want := x.SelectEquals(s, c), x.SelectEquals(ref, c); !got.Equal(want) {
			t.Errorf("%s: σ_=%q: value order %v, compare loop %v", where, c, got, want)
		}
		if got, want := x.SelectPrefix(s, c), x.SelectPrefix(ref, c); !got.Equal(want) {
			t.Errorf("%s: σ_prefix %q: value order %v, compare loop %v", where, c, got, want)
		}
	}
	if s.Memo() == nil || s.Memo().Load() == nil {
		t.Errorf("%s: the selections did not go through a value order", where)
	}
}

// constantsFor returns every distinct region text of s with, for each, a
// proper prefix and an extension, plus the constants no region has.
func constantsFor(content string, s region.Set) []string {
	seen := map[string]bool{}
	longest := 0
	add := func(c string) { seen[c] = true }
	for _, r := range s.Regions() {
		v := content[r.Start:r.End]
		add(v) // as a prefix: a prefix equal to a whole value
		add(v[:len(v)/2])
		add(v + "x")
		longest = max(longest, len(v))
	}
	add("")
	add(strings.Repeat("z", longest+1)) // longer than any region
	add("G. F. Corliss and")            // multi-word
	add("\", =")                        // punctuation only
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	return out
}

func TestValueOrderMatchesCompareLoop(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, d := range qgen.Domains(seed) {
			in, _, err := d.Cat.Grammar.BuildInstanceContext(context.Background(), d.Doc, d.Cat.Grammar.FullIndexSpec())
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range in.Names() {
				s := in.MustRegion(name)
				if s.IsEmpty() {
					continue
				}
				checkSelections(t, d.Name+"/"+name, in.Words(), s, constantsFor(d.Doc.Content(), s))
			}
		}
	}
}

// lines is the instance over x that indexes "Line", every line of the
// document without its newline.
func lines(x *index.WordIndex) *index.Instance {
	content := x.Document().Content()
	var rs []region.Region
	for pos := 0; pos < len(content); {
		end := pos + strings.IndexByte(content[pos:], '\n')
		rs = append(rs, region.Of(pos, end))
		pos = end + 1
	}
	return index.New(x, map[string]region.Set{"Line": region.FromRegions(rs)}, nil)
}

// TestValueOrderIsOnRegionText: regions need not align with word tokens. A
// region that is a proper substring of a token is found by its own text.
func TestValueOrderIsOnRegionText(t *testing.T) {
	doc := text.NewDocument("t", "foobar foo barfoo bar")
	in := index.New(index.NewWordIndex(doc), map[string]region.Set{"Part": region.FromRegions([]region.Region{
		{Start: 0, End: 3},   // "foo" inside foobar
		{Start: 3, End: 6},   // "bar" inside foobar
		{Start: 7, End: 10},  // the token foo
		{Start: 11, End: 14}, // "bar" inside barfoo
		{Start: 14, End: 17}, // "foo" inside barfoo
		{Start: 6, End: 7},   // the blank
		{Start: 18, End: 18}, // empty
	})}, nil)
	s := in.MustRegion("Part")
	checkSelections(t, "parts", in.Words(), s, constantsFor(doc.Content(), s))
	if got := in.Words().SelectEquals(s, "foo"); got.Len() != 3 {
		t.Errorf(`σ_="foo" = %v, want the three regions reading foo`, got)
	}
	if got := in.Words().SelectPrefix(s, "ba"); got.Len() != 2 {
		t.Errorf(`σ_prefix "ba" = %v, want the two regions reading bar`, got)
	}
}

// TestValueOrderFollowsTheInstance: two instances over one word index, one
// with every line and one without the first. Each set builds its own value
// order, and a set that already has one gets a fresh memo from New.
func TestValueOrderFollowsTheInstance(t *testing.T) {
	x := index.NewWordIndex(text.NewDocument("t", "alpha\nbeta\nalpha\ngamma\n"))
	old := lines(x).MustRegion("Line")
	if got := x.SelectEquals(old, "alpha"); got.Len() != 2 {
		t.Fatalf("σ_=alpha = %v", got)
	}
	built := old.Memo().Load()
	if built == nil {
		t.Fatal("first σ_= built no value order")
	}

	// Another set under the name: it starts without an order and builds
	// its own; the first set keeps answering for its own regions.
	now := index.New(x, map[string]region.Set{"Line": region.FromRegions(old.Regions()[1:])}, nil).MustRegion("Line")
	if now.Memo() == old.Memo() || now.Memo().Load() != nil {
		t.Error("a new instance shares another set's value order")
	}
	checkSelections(t, "without the first line", x, now, []string{"alpha", "beta", "a", ""})
	if got := x.SelectEquals(now, "alpha"); got.Len() != 1 {
		t.Errorf("σ_=alpha without the first line = %v, want the one alpha left", got)
	}
	if old.Memo().Load() != built || x.SelectEquals(old, "alpha").Len() != 2 {
		t.Error("the first set no longer answers for itself")
	}

	again := index.New(x, map[string]region.Set{"Line": old}, nil).MustRegion("Line")
	if again.Memo().Load() != nil {
		t.Error("a set handed to New came back with its value order")
	}
	checkSelections(t, "the same set again", x, again, []string{"alpha", "gamma", "g", ""})
}

func TestValueOrderAfterSplice(t *testing.T) {
	const content = "alpha\nbeta\nalpha\ngamma\n"
	old := lines(index.NewWordIndex(text.NewDocument("t", content)))
	constants := []string{"alpha", "alphax", "beta", "al", "gamma", "x", ""}
	checkSelections(t, "before any edit", old.Words(), old.MustRegion("Line"), constants)

	second := strings.LastIndex(content, "alpha")
	for _, edit := range []struct {
		name       string
		start, end int
		repl       string
	}{
		{"before the matching regions", 0, 0, "omega\n"},
		{"inside a matching region", second + 5, second + 5, "x"},
		{"replacing a matching region", second, second + 5, "delta"},
		{"after the matching regions", len(content), len(content), "alpha\n"},
	} {
		newDoc := text.NewDocument("t", content[:edit.start]+edit.repl+content[edit.end:])
		in := lines(old.Words().Splice(newDoc, edit.start, edit.end, edit.start+len(edit.repl)))
		s := in.MustRegion("Line")
		if s.Memo().Load() != nil {
			t.Errorf("%s: the spliced instance inherited a value order", edit.name)
		}
		checkSelections(t, edit.name, in.Words(), s, constants)
		want := strings.Count(newDoc.Content(), "alpha\n")
		if got := in.Words().SelectEquals(s, "alpha").Len(); got != want {
			t.Errorf("%s: σ_=alpha finds %d lines, the text has %d", edit.name, got, want)
		}
		// The old instance is untouched, and its set handed to the new
		// word index is compared region by region: the order in its
		// memo was sorted by another document's text.
		if got := old.Words().SelectEquals(old.MustRegion("Line"), "alpha").Len(); got != 2 {
			t.Errorf("%s: the old instance now finds %d alphas", edit.name, got)
		}
		foreign := old.MustRegion("Line")
		if got, want := in.Words().SelectEquals(foreign, "alpha"), in.Words().SelectEquals(plain(foreign), "alpha"); !got.Equal(want) {
			t.Errorf("%s: a set from another document: %v, compare loop %v", edit.name, got, want)
		}
	}
}

// manyLines builds an instance over n lines cycling through k values.
func manyLines(n, k int) *index.Instance {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteString("name")
		sb.WriteString(strings.Repeat("x", (i*7)%k))
		sb.WriteByte('\n')
	}
	return lines(index.NewWordIndex(text.NewDocument("t", sb.String())))
}

// TestValueOrderFirstUseConcurrent: goroutines racing to make the first use
// all get the right answer, whoever builds. Run under -race.
func TestValueOrderFirstUseConcurrent(t *testing.T) {
	in := manyLines(5000, 40)
	s := in.MustRegion("Line")
	want := in.Words().SelectEquals(plain(s), "namexxx")
	if want.IsEmpty() {
		t.Fatal("fixture has no match")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if got := in.Words().SelectEquals(s, "namexxx"); !got.Equal(want) {
					t.Errorf("concurrent first use: %d regions, want %d", got.Len(), want.Len())
				}
				if got := in.Words().SelectPrefix(s, "namexxx"); got.Len() < want.Len() {
					t.Errorf("concurrent first use: prefix finds %d regions, equality %d", got.Len(), want.Len())
				}
			}
		}()
	}
	wg.Wait()
	if s.Memo().Load() == nil {
		t.Error("no goroutine built the value order")
	}
}

// TestValueOrderCanceledBuild: a build aborted by its checker stores
// nothing, reports the checker's error, and the next call builds.
func TestValueOrderCanceledBuild(t *testing.T) {
	in := manyLines(5000, 40)
	s := in.MustRegion("Line")
	x := in.Words()
	boom := errors.New("canceled")
	polls := 0
	got, err := x.SelectEqualsCtl(s, "namexxx", func() error {
		if polls++; polls == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || !got.IsEmpty() {
		t.Fatalf("aborted build: %d regions, err %v", got.Len(), err)
	}
	if polls != 3 {
		t.Errorf("the build went on polling after the checker failed: %d polls", polls)
	}
	if s.Memo().Load() != nil {
		t.Fatal("an aborted build left a value order behind")
	}
	got, err = x.SelectPrefixCtl(s, "namexxx", func() error { return nil })
	if err != nil || !got.Equal(x.SelectPrefix(plain(s), "namexxx")) {
		t.Fatalf("the call after an aborted build: %d regions, err %v", got.Len(), err)
	}
	if s.Memo().Load() == nil {
		t.Error("the call after an aborted build built nothing")
	}
	if n, ok, err := x.TextMatches(s, "namexxx", false, nil); err != nil || !ok || n != x.SelectEquals(s, "namexxx").Len() {
		t.Errorf("TextMatches = %d, %v, %v", n, ok, err)
	}
	if _, ok, _ := x.TextMatches(plain(s), "namexxx", true, nil); ok {
		t.Error("TextMatches claims an order for a set without a memo")
	}
}
