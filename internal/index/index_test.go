package index

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"qof/internal/region"
	"qof/internal/text"
)

const sampleBib = `@INCOLLECTION{Corl82a,
AUTHOR = "G. F. Corliss and Y. F. Chang",
TITLE = "Solving Ordinary Differential Equations Using Taylor Series",
YEAR = "1982",
EDITOR = "A. Griewank and G. F. Corliss",
}`

func newTestIndex(t *testing.T) *WordIndex {
	t.Helper()
	return NewWordIndex(text.NewDocument("sample.bib", sampleBib))
}

func TestForEachWord(t *testing.T) {
	x := newTestIndex(t)
	total, distinct := 0, 0
	prev := ""
	x.ForEachWord(func(w string, occ int) {
		if w <= prev {
			t.Fatalf("words not in sorted order: %q after %q", w, prev)
		}
		prev = w
		if occ != x.Postings(w).Len() {
			t.Errorf("%q: reported %d, postings %d", w, occ, x.Postings(w).Len())
		}
		distinct++
		total += occ
	})
	if distinct != x.WordCount() || total != x.TokenCount() {
		t.Errorf("visited %d/%d, want %d/%d", distinct, total, x.WordCount(), x.TokenCount())
	}
}

func TestWordIndexCounts(t *testing.T) {
	x := newTestIndex(t)
	if x.TokenCount() == 0 || x.WordCount() == 0 {
		t.Fatal("empty index")
	}
	if x.WordCount() > x.TokenCount() {
		t.Error("more distinct words than tokens")
	}
	// "Corliss" appears twice, "Chang" once.
	if got := x.Postings("Corliss").Len(); got != 2 {
		t.Errorf("Corliss occurrences = %d, want 2", got)
	}
	if got := x.Postings("Chang").Len(); got != 1 {
		t.Errorf("Chang occurrences = %d, want 1", got)
	}
	if got := x.Postings("nosuchword").Len(); got != 0 {
		t.Errorf("nosuchword occurrences = %d", got)
	}
}

func TestMatchPoints(t *testing.T) {
	x := newTestIndex(t)
	mp := x.MatchPoints("Chang")
	if mp.Len() != 1 {
		t.Fatalf("MatchPoints = %v", mp)
	}
	r := mp.At(0)
	if sampleBib[r.Start:r.End] != "Chang" {
		t.Errorf("match point text = %q", sampleBib[r.Start:r.End])
	}
}

// occurrences returns the tokens of doc that are the word w, in document
// order: what a posting list must hold, read off the tokenization.
func occurrences(doc *text.Document, w string) []text.Token {
	var out []text.Token
	for _, tok := range text.Tokenize(doc.Content()) {
		if doc.Token(tok) == w {
			out = append(out, tok)
		}
	}
	return out
}

// TestMatchPointsEqualsOldConstruction: MatchPoints is one ordered copy of
// the posting list; it used to copy the postings into tokens, the tokens
// into regions, and sort and de-duplicate those through FromRegions. Both
// give the same set, and Postings reads the same occurrences in place.
func TestMatchPointsEqualsOldConstruction(t *testing.T) {
	doc := benchDoc(5000)
	x := NewWordIndex(doc)
	words := append([]string{"nosuchword", ""}, x.words...)
	for _, w := range words {
		occ := occurrences(doc, w)
		rs := make([]region.Region, len(occ))
		for i, tok := range occ {
			rs[i] = region.Of(tok.Start, tok.End)
		}
		want := region.FromRegions(rs)
		got := x.MatchPoints(w)
		if !got.Equal(want) || got.Disjoint() != want.Disjoint() || !got.Disjoint() {
			t.Fatalf("%q: MatchPoints %v (disjoint %v), old construction %v", w, got, got.Disjoint(), want)
		}
		p := x.Postings(w)
		if p.Len() != len(occ) {
			t.Fatalf("%q: %d postings, %d occurrences", w, p.Len(), len(occ))
		}
		for i := range occ {
			if p.At(i) != want.At(i) {
				t.Fatalf("%q: posting %d is %v, want %v", w, i, p.At(i), want.At(i))
			}
		}
	}
}

func TestPrefixSearch(t *testing.T) {
	x := newTestIndex(t)
	// Words starting with "Cor": Corl82a, Corliss (x2).
	mp := x.PrefixMatchPoints("Cor")
	if mp.Len() != 3 {
		t.Fatalf("PrefixMatchPoints(Cor) = %v, want 3 regions", mp)
	}
	for _, r := range mp.Regions() {
		if !strings.HasPrefix(sampleBib[r.Start:r.End], "Cor") {
			t.Errorf("bad prefix match %q", sampleBib[r.Start:r.End])
		}
	}
	words := x.PrefixWords("Cor")
	if len(words) != 2 || words[0] != "Corl82a" || words[1] != "Corliss" {
		t.Errorf("PrefixWords = %v", words)
	}
	if x.PrefixMatchPoints("zzz").Len() != 0 {
		t.Error("no matches expected")
	}
	// The full-word prefix matches the word itself.
	if x.PrefixMatchPoints("Chang").Len() != 1 {
		t.Error("exact word as prefix")
	}
}

func TestPrefixMatchesExhaustive(t *testing.T) {
	// Property: PrefixMatchPoints(p) equals the brute-force scan over
	// tokens, for random documents and prefixes, beside the empty prefix,
	// a whole word, one with a separator in it and one past every word.
	rng := rand.New(rand.NewSource(7))
	alpha := []string{"ab", "abc", "b", "ba", "c", "ca", "cab"}
	for trial := 0; trial < 100; trial++ {
		var sb strings.Builder
		for i := 0; i < 40; i++ {
			sb.WriteString(alpha[rng.Intn(len(alpha))])
			sb.WriteByte(' ')
		}
		doc := text.NewDocument("t", sb.String())
		x := NewWordIndex(doc)
		for _, prefix := range []string{alpha[rng.Intn(len(alpha))], "", "cab", "ab c", "~"} {
			got := x.PrefixMatchPoints(prefix)
			var want []region.Region
			for _, tok := range text.Tokenize(doc.Content()) {
				if strings.HasPrefix(doc.Token(tok), prefix) {
					want = append(want, region.Of(tok.Start, tok.End))
				}
			}
			if !got.Equal(region.FromRegions(want)) {
				t.Fatalf("trial %d: prefix %q: got %v want %v", trial, prefix, got, region.FromRegions(want))
			}
		}
	}
}

func TestSelectContaining(t *testing.T) {
	x := newTestIndex(t)
	// Two regions: the AUTHOR line and the EDITOR line.
	author := lineRegion(t, "AUTHOR")
	editor := lineRegion(t, "EDITOR")
	s := region.FromRegions([]region.Region{author, editor})
	if got := x.SelectContaining(s, "Chang"); got.Len() != 1 || got.At(0) != author {
		t.Errorf("SelectContaining(Chang) = %v", got)
	}
	if got := x.SelectContaining(s, "Corliss"); got.Len() != 2 {
		t.Errorf("SelectContaining(Corliss) = %v", got)
	}
	if got := x.SelectContaining(s, "Griewank"); got.Len() != 1 || got.At(0) != editor {
		t.Errorf("SelectContaining(Griewank) = %v", got)
	}
	if got := x.SelectContaining(s, "zzz"); !got.IsEmpty() {
		t.Errorf("SelectContaining(zzz) = %v", got)
	}
}

func TestSelectContainingWholeWordsOnly(t *testing.T) {
	doc := text.NewDocument("t", "the Changing of Chang here")
	x := NewWordIndex(doc)
	whole := region.FromRegions([]region.Region{region.Of(0, doc.Len())})
	// "Chang" as a whole word occurs once (inside "Changing" must not count).
	got := x.SelectContaining(whole, "Chang")
	if got.Len() != 1 {
		t.Fatalf("whole-document selection = %v", got)
	}
	firstHalf := region.FromRegions([]region.Region{{Start: 0, End: 12}}) // "the Changing"
	if got := x.SelectContaining(firstHalf, "Chang"); !got.IsEmpty() {
		t.Errorf("Chang-in-Changing selected: %v", got)
	}
}

func TestSelectEquals(t *testing.T) {
	x := newTestIndex(t)
	// Equality is raw text equality: a region holding `"1982"` (with
	// quotes) equals exactly that.
	start := strings.Index(sampleBib, `"1982"`)
	s := region.FromRegions([]region.Region{region.Of(start, start+6)})
	if got := x.SelectEquals(s, `"1982"`); got.Len() != 1 {
		t.Errorf("SelectEquals(quoted) = %v", got)
	}
	if got := x.SelectEquals(s, "1982"); !got.IsEmpty() {
		t.Errorf("SelectEquals(bare) = %v, want empty (raw equality)", got)
	}
	// A bare region equals its text.
	ystart := strings.Index(sampleBib, "1982")
	y := region.FromRegions([]region.Region{region.Of(ystart, ystart+4)})
	if got := x.SelectEquals(y, "1982"); got.Len() != 1 {
		t.Errorf("SelectEquals(bare region) = %v", got)
	}
	// Multi-word equality.
	astart := strings.Index(sampleBib, `G. F. Corliss and Y. F. Chang`)
	a := region.FromRegions([]region.Region{region.Of(astart, astart+29)})
	if got := x.SelectEquals(a, "G. F. Corliss and Y. F. Chang"); got.Len() != 1 {
		t.Errorf("multi-word SelectEquals = %v", got)
	}
}

// lineRegion finds the region of the line starting with the given keyword.
func lineRegion(t *testing.T, kw string) region.Region {
	t.Helper()
	start := strings.Index(sampleBib, kw)
	if start < 0 {
		t.Fatalf("keyword %q not in sample", kw)
	}
	end := start + strings.IndexByte(sampleBib[start:], '\n')
	return region.Of(start, end)
}

// sets makes the map New takes from name/regions pairs.
func sets(kv ...any) map[string]region.Set {
	m := make(map[string]region.Set)
	for i := 0; i < len(kv); i += 2 {
		m[kv[i].(string)] = region.FromRegions(kv[i+1].([]region.Region))
	}
	return m
}

func TestInstanceBasics(t *testing.T) {
	doc := text.NewDocument("sample.bib", sampleBib)
	if New(NewWordIndex(doc), nil, nil).Has("Reference") {
		t.Error("empty instance has no regions")
	}
	s := sets("Reference", []region.Region{region.Of(0, doc.Len())}, "Author", []region.Region{{Start: 23, End: 60}})
	in := New(NewWordIndex(doc), s, nil)
	if !in.Has("Reference") || !in.Has("Author") {
		t.Error("Has")
	}
	if got := in.Names(); len(got) != 2 || got[0] != "Author" || got[1] != "Reference" {
		t.Errorf("Names = %v", got)
	}
	if in.RegionCount() != 2 {
		t.Errorf("RegionCount = %d", in.RegionCount())
	}
	if _, ok := in.Region("Nope"); ok {
		t.Error("Region(Nope)")
	}
	if got := in.MustRegion("Author"); got.Len() != 1 {
		t.Errorf("MustRegion = %v", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustRegion on unknown name must panic")
			}
		}()
		in.MustRegion("Nope")
	}()
	if u := in.Universe(); u.All().Len() != 2 {
		t.Errorf("Universe = %v", u.All())
	}
	// New does not keep the caller's map: adding to it later changes
	// nothing the instance holds.
	s["Editor"] = region.FromRegions([]region.Region{{Start: 100, End: 130}})
	if in.Has("Editor") || in.Universe().All().Len() != 2 {
		t.Error("the instance follows the map it was made from")
	}
	if in.MustRegion("Author").Memo() == nil {
		t.Error("New must give each set a memo")
	}
	if in.SizeBytes() <= 0 {
		t.Error("SizeBytes")
	}
}

func TestDefineScoped(t *testing.T) {
	doc := text.NewDocument("d", "a b c d")
	one := []region.Region{{Start: 0, End: 1}}
	in := New(NewWordIndex(doc), sets("Name", one, "Ref", one), map[string]string{"Name": "Authors", "Missing": "Editors"})
	if in.Scope("Name") != "Authors" || in.Scope("Ref") != "" {
		t.Errorf("Scope(Name) = %q, Scope(Ref) = %q", in.Scope("Name"), in.Scope("Ref"))
	}
	if in.Scope("Missing") != "" || in.Has("Missing") {
		t.Error("a scope without a set indexes nothing")
	}
}

func TestSaveLoadPreservesScopes(t *testing.T) {
	doc := text.NewDocument("d", "a b c d")
	in := New(NewWordIndex(doc), sets("Ref", []region.Region{{Start: 0, End: 7}}, "Name", []region.Region{{Start: 2, End: 3}}), map[string]string{"Name": "Authors"})
	var buf bytes.Buffer
	if err := in.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf, doc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scope("Name") != "Authors" || got.Scope("Ref") != "" {
		t.Errorf("scopes after load: Name=%q Ref=%q", got.Scope("Name"), got.Scope("Ref"))
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	doc := text.NewDocument("sample.bib", sampleBib)
	in := New(NewWordIndex(doc), sets(
		"Reference", []region.Region{region.Of(0, doc.Len())},
		"Author", []region.Region{{Start: 23, End: 60}, {Start: 23, End: 40}},
		"Empty", []region.Region(nil)), nil)

	var buf bytes.Buffer
	if err := in.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(&buf, doc)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(got.Names()) != 3 {
		t.Fatalf("Names = %v", got.Names())
	}
	for _, name := range in.Names() {
		a, b := in.MustRegion(name), got.MustRegion(name)
		if !a.Equal(b) {
			t.Errorf("region %q: %v != %v", name, a, b)
		}
	}
	if got.Words().TokenCount() != in.Words().TokenCount() {
		t.Errorf("token count %d != %d", got.Words().TokenCount(), in.Words().TokenCount())
	}
	// Loaded index answers queries identically.
	if got.Words().MatchPoints("Chang").Len() != 1 {
		t.Error("loaded word index broken")
	}
}

func TestLoadRejectsChangedDocument(t *testing.T) {
	doc := text.NewDocument("sample.bib", sampleBib)
	in := New(NewWordIndex(doc), nil, nil)
	var buf bytes.Buffer
	if err := in.Save(&buf); err != nil {
		t.Fatal(err)
	}
	other := text.NewDocument("sample.bib", sampleBib+" tampered")
	if _, err := Load(bytes.NewReader(buf.Bytes()), other); err != ErrIndexMismatch {
		t.Errorf("Load on changed doc: err = %v, want ErrIndexMismatch", err)
	}
	// Same length, different content.
	mutated := []byte(sampleBib)
	mutated[0] = '#'
	other2 := text.NewDocument("sample.bib", string(mutated))
	if _, err := Load(bytes.NewReader(buf.Bytes()), other2); err != ErrIndexMismatch {
		t.Errorf("Load on mutated doc: err = %v, want ErrIndexMismatch", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	doc := text.NewDocument("d", "x")
	if _, err := Load(bytes.NewReader([]byte("not an index")), doc); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(bytes.NewReader(nil), doc); err == nil {
		t.Error("empty input accepted")
	}
}

func TestSaveLoadLargeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var sb strings.Builder
	for i := 0; i < 2000; i++ {
		sb.WriteString("w")
		sb.WriteString(strings.Repeat("x", rng.Intn(5)))
		sb.WriteByte(' ')
	}
	doc := text.NewDocument("big", sb.String())
	var rs []region.Region
	for i := 0; i < 500; i++ {
		a := rng.Intn(doc.Len())
		b := a + rng.Intn(doc.Len()-a)
		rs = append(rs, region.Of(a, b+1))
	}
	in := New(NewWordIndex(doc), sets("R", rs), nil)
	var buf bytes.Buffer
	if err := in.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf, doc)
	if err != nil {
		t.Fatal(err)
	}
	if !got.MustRegion("R").Equal(in.MustRegion("R")) {
		t.Error("round trip mismatch")
	}
}

func TestSubstringMatchPoints(t *testing.T) {
	x := newTestIndex(t)
	// "114--144" spans words; substring search finds it.
	got := x.SubstringMatchPoints("ing Taylor")
	if got.Len() != 1 {
		t.Fatalf("substring = %v", got)
	}
	r := got.At(0)
	if sampleBib[r.Start:r.End] != "ing Taylor" {
		t.Errorf("text = %q", sampleBib[r.Start:r.End])
	}
	// Multiple occurrences.
	if got := x.SubstringMatchPoints("Corliss"); got.Len() != 2 {
		t.Errorf("Corliss = %v", got)
	}
	if got := x.SubstringMatchPoints("zzz"); !got.IsEmpty() {
		t.Errorf("absent = %v", got)
	}
	if got := x.SubstringMatchPoints(""); !got.IsEmpty() {
		t.Errorf("empty = %v", got)
	}
}

func TestLoadFuzzedBytesNeverPanics(t *testing.T) {
	// Corrupting a valid index file must produce errors, not panics or
	// bogus instances that violate the document bounds.
	doc := text.NewDocument("f", strings.Repeat("word ", 40))
	in := New(NewWordIndex(doc), sets("R", []region.Region{{Start: 0, End: 10}, {Start: 20, End: 30}}), nil)
	var buf bytes.Buffer
	if err := in.Save(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		data := append([]byte(nil), valid...)
		for k := 0; k < 1+rng.Intn(3); k++ {
			data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: panic: %v", trial, r)
				}
			}()
			got, err := Load(bytes.NewReader(data), doc)
			if err != nil {
				return
			}
			for _, name := range got.Names() {
				for _, r := range got.MustRegion(name).Regions() {
					if r.Start < 0 || int(r.End) > doc.Len() || r.Start > r.End {
						t.Fatalf("trial %d: out-of-bounds region %v accepted", trial, r)
					}
				}
			}
		}()
	}
	// Truncations too.
	for cut := 0; cut < len(valid); cut += 7 {
		if _, err := Load(bytes.NewReader(valid[:cut]), doc); err == nil && cut < len(valid) {
			t.Fatalf("truncated index (%d bytes) accepted", cut)
		}
	}
}

// checkSplice replaces [a, b) of oldContent by repl and requires the spliced
// word index to be, field for field, the one built from scratch over the
// edited document, with nothing allocated beyond what it holds.
func checkSplice(t *testing.T, oldContent string, a, b int, repl string) {
	t.Helper()
	old := NewWordIndex(text.NewDocument("old", oldContent))
	newDoc := text.NewDocument("new", oldContent[:a]+repl+oldContent[b:])
	got := old.Splice(newDoc, a, b, a+len(repl))
	want := NewWordIndex(newDoc)
	if !slices.Equal(got.words, want.words) || !slices.Equal(got.offs, want.offs) || !slices.Equal(got.post, want.post) {
		t.Fatalf("edit [%d,%d)->%q on %q:\n spliced %q %v %v\n rebuilt %q %v %v",
			a, b, repl, oldContent, got.words, got.offs, got.post, want.words, want.offs, want.post)
	}
	if cap(got.post) != len(got.post) {
		t.Fatalf("edit [%d,%d)->%q on %q: slab of %d positions has capacity %d", a, b, repl, oldContent, len(got.post), cap(got.post))
	}
	// The dictionary must not keep the old document alive.
	base := uintptr(unsafe.Pointer(unsafe.StringData(newDoc.Content())))
	for _, w := range got.words {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(w))); p < base || p+uintptr(len(w)) > base+uintptr(newDoc.Len()) {
			t.Fatalf("edit [%d,%d)->%q on %q: dictionary word %q is not a substring of the new document", a, b, repl, oldContent, w)
		}
	}
	// Prefix search works on the spliced index.
	if !got.PrefixMatchPoints("al").Equal(want.PrefixMatchPoints("al")) {
		t.Fatalf("edit [%d,%d)->%q on %q: prefix search differs", a, b, repl, oldContent)
	}
}

// TestSpliceMatchesFresh is the splice correctness property: for random
// documents and random edits, the spliced word index is indistinguishable
// from one built from scratch over the edited document. Edits fall at any
// byte, so they split words, multi-byte runes and invalid sequences.
func TestSpliceMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	alphabets := [][]string{
		{"alpha", "beta", "gamma", "x1", "", "-", "  "},
		{"alpha", "été", "日本", "é", "\xc3", "\xa9", "\xff", "·", " ", "—", "x"},
	}
	for trial := 0; trial < 800; trial++ {
		words := alphabets[trial%2]
		randText := func(n int) string {
			var sb strings.Builder
			for i := 0; i < n; i++ {
				sb.WriteString(words[rng.Intn(len(words))])
				if rng.Intn(3) > 0 {
					sb.WriteByte(' ')
				}
			}
			return sb.String()
		}
		oldContent := randText(30)
		a := rng.Intn(len(oldContent) + 1)
		b := a + rng.Intn(len(oldContent)-a+1)
		checkSplice(t, oldContent, a, b, randText(rng.Intn(6)))
	}
}

// TestSpliceEdgeCases names the edits a random draw reaches rarely.
func TestSpliceEdgeCases(t *testing.T) {
	const doc = "alpha beta gamma beta"
	for _, tc := range []struct {
		name, old string
		a, b      int
		repl      string
	}{
		{"a word the document never had", doc, 6, 10, "delta"},
		{"a word sorting before every other", doc, 6, 10, "aaa"},
		{"a word sorting after every other", doc, 6, 10, "zeta"},
		{"the last occurrence of a word goes", doc, 0, 6, ""},
		{"one of two occurrences goes", doc, 6, 11, ""},
		{"the edit ends where a token starts", doc, 5, 6, " - "},
		{"the edit starts where a token ends", doc, 5, 5, "bet"},
		{"the edit extends a token on its left", doc, 6, 6, "al"},
		{"two tokens are joined", doc, 5, 6, ""},
		{"two tokens are joined by a word rune", doc, 10, 11, "9"},
		{"a token is split", doc, 2, 2, " "},
		{"an empty edit", doc, 7, 7, ""},
		{"an empty edit at the start", doc, 0, 0, ""},
		{"an empty edit at the end", doc, len(doc), len(doc), ""},
		{"an append", doc, len(doc), len(doc), "s alpha"},
		{"a prepend", doc, 0, 0, "gamma"},
		{"the whole document is replaced", doc, 0, len(doc), "beta new beta"},
		{"the whole document is deleted", doc, 0, len(doc), ""},
		{"an empty document grows", "", 0, 0, "alpha alpha"},
		{"a document without separators", "alphabeta", 5, 5, " "},
		{"a multi-byte rune ends at the window edge", "caf\u00e9 bar", 6, 9, "baz"},
		{"a multi-byte rune starts at the window edge", "bar \u00e9t\u00e9", 0, 3, "baz"},
		{"the edit splits a multi-byte rune", "caf\u00e9 bar", 4, 5, "x"},
		{"the edit completes an invalid sequence", "caf\xc3 bar", 4, 4, "\xa9"},
		{"no ASCII separator bounds the window", "日本語·テスト·日本語", 9, 11, "·"},
	} {
		t.Run(tc.name, func(t *testing.T) { checkSplice(t, tc.old, tc.a, tc.b, tc.repl) })
	}
}
