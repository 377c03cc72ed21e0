package index_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"qof/internal/index"
	"qof/internal/qgen"
	"qof/internal/region"
	"qof/internal/text"
)

// refWordIndex is the layout the positions slab replaced, kept as its
// oracle: a token table and a map from each word to the indexes of its
// tokens, built with one map assignment and one append per occurrence.
// Everything it answers is read off the tokenization in the obvious way.
type refWordIndex struct {
	doc    *text.Document
	tokens []text.Token     // all word occurrences, sorted by Start
	byWord map[string][]int // word -> indexes into tokens
	words  []string         // distinct words, sorted
}

func newRefWordIndex(doc *text.Document) *refWordIndex {
	idx := &refWordIndex{doc: doc, tokens: text.Tokenize(doc.Content()), byWord: make(map[string][]int)}
	for i, tok := range idx.tokens {
		w := doc.Token(tok)
		idx.byWord[w] = append(idx.byWord[w], i)
	}
	idx.words = make([]string, 0, len(idx.byWord))
	for w := range idx.byWord {
		idx.words = append(idx.words, w)
	}
	sort.Strings(idx.words)
	return idx
}

// occurrences returns the regions of every occurrence of the exact word w,
// in document order.
func (x *refWordIndex) occurrences(w string) []region.Region {
	out := make([]region.Region, 0, len(x.byWord[w]))
	for _, ti := range x.byWord[w] {
		out = append(out, region.Of(x.tokens[ti].Start, x.tokens[ti].End))
	}
	return out
}

func (x *refWordIndex) prefixWords(prefix string) []string {
	var out []string
	for _, w := range x.words {
		if strings.HasPrefix(w, prefix) {
			out = append(out, w)
		}
	}
	return out
}

// prefixMatchPoints is PAT's prefix search by definition: the tokens whose
// following text starts with prefix and that are at least as long.
func (x *refWordIndex) prefixMatchPoints(prefix string) region.Set {
	var rs []region.Region
	for _, tok := range x.tokens {
		if strings.HasPrefix(x.doc.Content()[tok.Start:], prefix) && tok.Len() >= len(prefix) {
			rs = append(rs, region.Of(tok.Start, tok.End))
		}
	}
	return region.FromRegions(rs)
}

func (x *refWordIndex) substringMatchPoints(s string) region.Set {
	var rs []region.Region
	content := x.doc.Content()
	for i := 0; s != "" && i+len(s) <= len(content); i++ {
		if content[i:i+len(s)] == s {
			rs = append(rs, region.Of(i, i+len(s)))
		}
	}
	return region.FromRegions(rs)
}

// selectContaining is σ_w one region and one occurrence at a time.
func (x *refWordIndex) selectContaining(s region.Set, w string) region.Set {
	occ := x.occurrences(w)
	return s.Filter(func(r region.Region) bool {
		return slices.ContainsFunc(occ, func(o region.Region) bool { return r.Start <= o.Start && o.End <= r.End })
	})
}

// save writes the instance the way Save did when the word index held the
// token table: the table copied out of it, then the region tables, then
// the file's CRC.
func (x *refWordIndex) save(in *index.Instance) []byte {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	uvarint := func(v uint64) { bw.Write(binary.AppendUvarint(nil, v)) }
	str := func(s string) { uvarint(uint64(len(s))); bw.WriteString(s) }
	table := func(n int, at func(i int) (start, end int)) {
		uvarint(uint64(n))
		prev := 0
		for i := 0; i < n; i++ {
			start, end := at(i)
			uvarint(uint64(start - prev))
			uvarint(uint64(end - start))
			prev = start
		}
	}
	bw.WriteString("QOFIX02\n")
	str(x.doc.Name())
	uvarint(uint64(x.doc.Len()))
	uvarint(uint64(crc32.ChecksumIEEE([]byte(x.doc.Content()))))
	table(len(x.tokens), func(i int) (int, int) { return x.tokens[i].Start, x.tokens[i].End })
	uvarint(uint64(len(in.Names())))
	for _, name := range in.Names() {
		str(name)
		str(in.Scope(name))
		rs := in.MustRegion(name).Regions()
		table(len(rs), func(i int) (int, int) { return int(rs[i].Start), int(rs[i].End) })
	}
	bw.Flush()
	return binary.LittleEndian.AppendUint32(buf.Bytes(), crc32.Checksum(buf.Bytes(), crc32.MakeTable(crc32.Castagnoli)))
}

// checkAgainstReference compares everything the word index answers with the
// reference built over the same document. sets are region sets to select
// from; probes are extra words, prefixes and substrings to ask about beside
// the document's own.
func checkAgainstReference(t *testing.T, doc *text.Document, sets []region.Set, probes []string) {
	t.Helper()
	x, ref := index.NewWordIndex(doc), newRefWordIndex(doc)
	if x.TokenCount() != len(ref.tokens) || x.WordCount() != len(ref.words) {
		t.Fatalf("%s: %d tokens, %d words; reference %d, %d", doc.Name(), x.TokenCount(), x.WordCount(), len(ref.tokens), len(ref.words))
	}
	var visited []string
	x.ForEachWord(func(w string, occ int) {
		visited = append(visited, w)
		if occ != len(ref.byWord[w]) {
			t.Errorf("%s: ForEachWord(%q) = %d, reference %d", doc.Name(), w, occ, len(ref.byWord[w]))
		}
	})
	if !slices.Equal(visited, ref.words) {
		t.Fatalf("%s: ForEachWord visits %q, reference %q", doc.Name(), visited, ref.words)
	}

	// Beside the probes and every whole word: the empty prefix, one with
	// a separator in it and one past every ASCII word.
	asked := slices.Concat(probes, ref.words, []string{"", "ab c", "~"})
	for _, w := range ref.words { // near misses of the dictionary
		asked = append(asked, w[:len(w)-1], w+"x", w+" ")
	}
	for _, w := range asked {
		want := ref.occurrences(w)
		if got := x.MatchPoints(w); !got.Equal(region.FromRegions(want)) || !got.Disjoint() {
			t.Fatalf("%s: MatchPoints(%q) = %v, reference %v", doc.Name(), w, got, want)
		}
		p := x.Postings(w)
		if p.Len() != len(want) {
			t.Fatalf("%s: Postings(%q) has %d, reference %d", doc.Name(), w, p.Len(), len(want))
		}
		for i := range want {
			if p.At(i) != want[i] {
				t.Fatalf("%s: Postings(%q).At(%d) = %v, reference %v", doc.Name(), w, i, p.At(i), want[i])
			}
		}
		if got, want := x.PrefixWords(w), ref.prefixWords(w); !slices.Equal(got, want) {
			t.Fatalf("%s: PrefixWords(%q) = %q, reference %q", doc.Name(), w, got, want)
		}
		if got, want := x.PrefixMatchPoints(w), ref.prefixMatchPoints(w); !got.Equal(want) {
			t.Fatalf("%s: PrefixMatchPoints(%q) = %v, reference %v", doc.Name(), w, got, want)
		}
		for _, s := range sets {
			if got, want := x.SelectContaining(s, w), ref.selectContaining(s, w); !got.Equal(want) {
				t.Fatalf("%s: SelectContaining(%q) = %v, reference %v", doc.Name(), w, got, want)
			}
		}
	}
	for _, s := range probes {
		if got, want := x.SubstringMatchPoints(s), ref.substringMatchPoints(s); !got.Equal(want) {
			t.Fatalf("%s: SubstringMatchPoints(%q) = %v, reference %v", doc.Name(), s, got, want)
		}
	}
}

// mutations returns n copies of content with a few bytes overwritten: by
// printable ASCII (words split, joined, renamed) on even copies, by
// arbitrary bytes (invalid UTF-8 among them) on odd ones. The length is
// kept, so regions over the original still address the copy.
func mutations(content string, n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		b := []byte(content)
		for k := 0; k < 1+rng.Intn(8); k++ {
			c := byte(32 + rng.Intn(95))
			if i%2 == 1 {
				c = byte(rng.Intn(256))
			}
			b[rng.Intn(len(b))] = c
		}
		out[i] = string(b)
	}
	return out
}

// TestWordIndexMatchesReference runs the comparison on every qgen domain:
// its corpus and mutated copies of it, selecting from every region set of
// the full index — disjoint ones and sgml's self-nested Section.
func TestWordIndexMatchesReference(t *testing.T) {
	sawOverlapping := false
	for _, d := range qgen.Domains(7) {
		in, _, err := d.Cat.Grammar.BuildInstance(d.Doc, d.Specs[0])
		if err != nil {
			t.Fatal(err)
		}
		var sets []region.Set
		for _, name := range in.Names() {
			sets = append(sets, in.MustRegion(name))
			sawOverlapping = sawOverlapping || !in.MustRegion(name).Disjoint()
		}
		probes := slices.Concat(d.Words, d.Prefixes, d.Fragments, []string{"", " ", "\xff"})
		checkAgainstReference(t, d.Doc, sets, probes)
		for i, m := range mutations(d.Doc.Content(), 12, 21) {
			checkAgainstReference(t, text.NewDocument(fmt.Sprintf("%s#%d", d.Name, i), m), sets, probes)
		}
	}
	if !sawOverlapping {
		t.Error("no overlapping region set was selected from; sgml's Section should be one")
	}
}

// unicodeDocs are documents the generators never write: multi-byte words,
// separators and digits, and byte sequences that are not UTF-8 at all.
var unicodeDocs = []string{
	"",
	"é",
	"héllo wörld — 日本語 テスト, ١٢٣ naïve naïve",
	"ünïcödé ünïcödé ünïcödé·x y",
	"\xff\xfeabc \xc3 d\xe2\x82 abc\xc3\xa9\x80z \xf0\x9f\x98",
	"a\xc3",
	"\xa9b \xc3\xa9b",
}

func TestWordIndexMatchesReferenceOnUnicode(t *testing.T) {
	probes := []string{"", "é", "h", "hé", "ünï", "naïve", "abc", "日本", "\xc3", "\xa9", "b", "١"}
	for i, content := range unicodeDocs {
		doc := text.NewDocument(fmt.Sprintf("unicode#%d", i), content)
		all := region.FromRegions([]region.Region{region.Of(0, len(content)), region.Of(len(content)/2, len(content))})
		checkAgainstReference(t, doc, []region.Set{all}, probes)
	}
}

// TestSaveMatchesReferenceWriter: on every qgen domain × index spec, and on
// the unicode documents, Save streams from the text exactly the bytes the
// token-table layout wrote, and they load back.
func TestSaveMatchesReferenceWriter(t *testing.T) {
	check := func(in *index.Instance) {
		t.Helper()
		doc := in.Document()
		var buf bytes.Buffer
		if err := in.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if want := newRefWordIndex(doc).save(in); !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%s: Save wrote %d bytes that differ from the reference writer's %d", doc.Name(), buf.Len(), len(want))
		}
		loaded, err := index.Load(bytes.NewReader(buf.Bytes()), doc)
		if err != nil {
			t.Fatalf("%s: Load: %v", doc.Name(), err)
		}
		if got, want := loaded.Words().TokenCount(), in.Words().TokenCount(); got != want {
			t.Fatalf("%s: loaded %d tokens, saved %d", doc.Name(), got, want)
		}
	}
	for _, d := range qgen.Domains(7) {
		for _, spec := range d.Specs {
			in, _, err := d.Cat.Grammar.BuildInstance(d.Doc, spec)
			if err != nil {
				t.Fatal(err)
			}
			check(in)
		}
	}
	for i, content := range unicodeDocs {
		doc := text.NewDocument(fmt.Sprintf("unicode#%d", i), content)
		in := index.New(index.NewWordIndex(doc), map[string]region.Set{"All": region.FromRegions([]region.Region{region.Of(0, len(content))})}, nil)
		check(in)
	}
}
