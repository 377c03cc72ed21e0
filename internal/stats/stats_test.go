package stats_test

import (
	"testing"

	"qof/internal/engine"
	"qof/internal/index"
	"qof/internal/qgen"
	"qof/internal/stats"
	"qof/internal/text"
)

// TestCollect checks the view against an independent count of every qgen
// domain under every index spec, and again after an edit
// (engine.ReplaceRegion, what File.Replace runs): a region count is the
// set's length, a word count its occurrences in text.Tokenize of the
// content, the token total that tokenization's length and the document
// length the content's.
func TestCollect(t *testing.T) {
	for _, d := range qgen.Domains(7) {
		for si, spec := range d.Specs {
			in, _, err := d.Cat.Grammar.BuildInstance(d.Doc, spec)
			if err != nil {
				t.Fatal(err)
			}
			checkView(t, d, si, "build", in)
			edited, err := replaceOne(d, in)
			if err != nil {
				t.Fatalf("%s spec %d: %v", d.Name, si, err)
			}
			if edited.Document().Content() == in.Document().Content() {
				t.Fatalf("%s spec %d: nothing was edited", d.Name, si)
			}
			checkView(t, d, si, "edit", edited)
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

func checkView(t *testing.T, d *qgen.Domain, spec int, what string, in *index.Instance) {
	t.Helper()
	domain := d.Name
	st := engine.New(d.Cat, in).IndexStats()
	content := in.Document().Content()
	toks := text.Tokenize(content)
	count := make(map[string]int)
	for _, tok := range toks {
		count[content[tok.Start:tok.End]]++
	}
	if got := st.DocLen(); got != len(content) {
		t.Errorf("%s spec %d %s: DocLen = %d, content is %d bytes", domain, spec, what, got, len(content))
	}
	if got := st.TotalTokens(); got != len(toks) {
		t.Errorf("%s spec %d %s: TotalTokens = %d, tokenization has %d", domain, spec, what, got, len(toks))
	}
	for w, n := range count {
		if got := st.WordFreq(w); got != n {
			t.Errorf("%s spec %d %s: WordFreq(%q) = %d, it occurs %d times", domain, spec, what, w, got, n)
		}
	}
	const absent = "qqzxabsent"
	if got := st.WordFreq(absent); count[absent] != 0 || got != 0 {
		t.Errorf("%s spec %d %s: WordFreq of an absent word = %d", domain, spec, what, got)
	}
	for _, name := range in.Names() {
		if got, want := st.RegionCard(name), in.MustRegion(name).Len(); got != want {
			t.Errorf("%s spec %d %s: RegionCard(%s) = %d, the set holds %d", domain, spec, what, name, got, want)
		}
	}
	if got := st.RegionCard("NotIndexed"); got != 0 {
		t.Errorf("%s spec %d %s: RegionCard of an unindexed name = %d", domain, spec, what, got)
	}
}

func TestNilReceivers(t *testing.T) {
	var st *stats.Stats
	if st.RegionCard("A") != 0 || st.WordFreq("w") != 0 {
		t.Error("nil Stats accessors must return 0")
	}
}
