package algebra_test

import (
	"testing"

	"qof/internal/algebra"
	"qof/internal/engine"
	"qof/internal/index"
	"qof/internal/qgen"
	"qof/internal/text"
)

// TestEstimateReadsInstance checks the figures EstimateCost reads off an
// instance against an independent count, on every qgen domain under every
// index spec, and again after an edit (engine.ReplaceRegion, what
// File.Replace runs): a name's cardinality is its set's length (0 when
// unindexed), a word's its occurrences in text.Tokenize of the content, a
// prefix's bound that tokenization's length and a substring's the
// document's length.
func TestEstimateReadsInstance(t *testing.T) {
	for _, d := range qgen.Domains(7) {
		for si, spec := range d.Specs {
			in, _, err := d.Cat.Grammar.BuildInstance(d.Doc, spec)
			if err != nil {
				t.Fatal(err)
			}
			checkEstimateInputs(t, d.Name, si, "build", in)
			edited, err := replaceOne(d, in)
			if err != nil {
				t.Fatalf("%s spec %d: %v", d.Name, si, err)
			}
			if edited.Document().Content() == in.Document().Content() {
				t.Fatalf("%s spec %d: nothing was edited", d.Name, si)
			}
			checkEstimateInputs(t, d.Name, si, "edit", edited)
		}
	}
}

// replaceOne puts the text of the last region of the first name holding
// two distinct texts in place of its first, and returns the edited instance.
func replaceOne(d *qgen.Domain, in *index.Instance) (*index.Instance, error) {
	doc := in.Document()
	for _, name := range in.Names() {
		set := in.MustRegion(name)
		if set.Len() < 2 {
			continue
		}
		first, last := set.At(0), set.At(set.Len()-1)
		src := doc.Slice(int(last.Start), int(last.End))
		if src == doc.Slice(int(first.Start), int(first.End)) {
			continue
		}
		return engine.ReplaceRegion(d.Cat, in, name, first, src)
	}
	return in, nil
}

func checkEstimateInputs(t *testing.T, domain string, spec int, what string, in *index.Instance) {
	t.Helper()
	card := func(src string) int { return algebra.EstimateCost(algebra.MustParse(src), in).Card }
	content := in.Document().Content()
	toks := text.Tokenize(content)
	count := make(map[string]int)
	for _, tok := range toks {
		count[content[tok.Start:tok.End]]++
	}
	if got := card(`match("a")`); got != len(content) {
		t.Errorf("%s spec %d %s: a substring's bound is %d, content is %d bytes", domain, spec, what, got, len(content))
	}
	if got := card(`prefix("a")`); got != len(toks) {
		t.Errorf("%s spec %d %s: a prefix's bound is %d, tokenization has %d", domain, spec, what, got, len(toks))
	}
	for w, n := range count {
		if got := algebra.EstimateCost(algebra.Word{W: w}, in).Card; got != n {
			t.Errorf("%s spec %d %s: word(%q) estimates %d, it occurs %d times", domain, spec, what, w, got, n)
		}
	}
	if got := card(`word("qqzxabsent")`); count["qqzxabsent"] != 0 || got != 0 {
		t.Errorf("%s spec %d %s: an absent word estimates %d", domain, spec, what, got)
	}
	for _, name := range in.Names() {
		if got, want := algebra.EstimateCost(algebra.Name{Ident: name}, in).Card, in.MustRegion(name).Len(); got != want {
			t.Errorf("%s spec %d %s: %s estimates %d, the set holds %d", domain, spec, what, name, got, want)
		}
	}
	if got := card(`NotIndexed`); got != 0 {
		t.Errorf("%s spec %d %s: an unindexed name estimates %d", domain, spec, what, got)
	}
}
