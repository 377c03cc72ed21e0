// Package index implements the text-indexing engine underneath the region
// algebra: a word index recording the location of every word occurrence in a
// document (the PAT system's sistring index), named region indices, and a
// persistent on-disk format for both.
//
// The paper assumes "that this is a service given by the underlying text
// indexing system" — this package is that service, reimplemented from the
// published PAT semantics: match points are word-start positions, regions
// are position pairs, and selection combines the two.
package index

import (
	"index/suffixarray"
	"sort"
	"strings"
	"sync"

	"qof/internal/region"
	"qof/internal/text"
)

// WordIndex records the position of every word occurrence in a document.
// It supports exact-word lookup through an inverted map and PAT-style
// sistring (semi-infinite string) prefix search through an array of word
// starts sorted by the text that follows them.
//
// A WordIndex is immutable after construction except for the lazily built
// sistring and suffix arrays, whose one-time construction is synchronized —
// concurrent queries may share one WordIndex freely.
type WordIndex struct {
	doc      *text.Document
	tokens   []text.Token     // all word occurrences, sorted by Start
	byWord   map[string][]int // word -> indexes into tokens
	words    []string         // distinct words, sorted
	sisOnce  sync.Once
	sistring []int // token indexes sorted by doc[token.Start:]; built lazily
	sufOnce  sync.Once
	suffixes *suffixarray.Index // byte-level suffix array; built lazily
}

// NewWordIndex tokenizes the document and builds the word index.
func NewWordIndex(doc *text.Document) *WordIndex {
	return newWordIndex(doc, doc.Tokens())
}

func newWordIndex(doc *text.Document, tokens []text.Token) *WordIndex {
	idx := &WordIndex{
		doc:    doc,
		tokens: tokens,
		byWord: make(map[string][]int),
	}
	for i, tok := range tokens {
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

// sistringArray returns the token indexes in lexicographic order of the
// text following each token (PAT's sistring order). It is built on first
// use: sorting semi-infinite strings is the most expensive part of word
// indexing and only prefix search needs it. Token order is derived from
// byte-level suffix ranks (see suffixRanks) so each comparison is O(1)
// regardless of how repetitive the document is.
func (x *WordIndex) sistringArray() []int {
	x.sisOnce.Do(func() {
		if len(x.tokens) == 0 {
			return
		}
		starts := make([]int, len(x.tokens))
		arr := make([]int, len(x.tokens))
		for i, tok := range x.tokens {
			starts[i] = tok.Start
			arr[i] = i
		}
		rank := suffixRanksAt(x.doc.Content(), starts)
		sort.Slice(arr, func(a, b int) bool {
			return rank[x.tokens[arr[a]].Start] < rank[x.tokens[arr[b]].Start]
		})
		x.sistring = arr
	})
	return x.sistring
}

// sortSistringNaive is the direct suffix-comparison sort the ranked build
// replaced. It is kept as the correctness and performance reference for
// tests and benchmarks only.
func (x *WordIndex) sortSistringNaive() []int {
	content := x.doc.Content()
	arr := make([]int, len(x.tokens))
	for i := range arr {
		arr[i] = i
	}
	sort.Slice(arr, func(a, b int) bool {
		return content[x.tokens[arr[a]].Start:] < content[x.tokens[arr[b]].Start:]
	})
	return arr
}

// Document returns the indexed document.
func (x *WordIndex) Document() *text.Document { return x.doc }

// TokenCount reports the number of word occurrences in the document.
func (x *WordIndex) TokenCount() int { return len(x.tokens) }

// WordCount reports the number of distinct words in the document.
func (x *WordIndex) WordCount() int { return len(x.words) }

// Tokens returns all word occurrences sorted by start position. Callers must
// not modify the returned slice.
func (x *WordIndex) Tokens() []text.Token { return x.tokens }

// ForEachWord calls fn for every distinct word with its occurrence count,
// in sorted word order. It is the statistics collector's view of the
// inverted index.
func (x *WordIndex) ForEachWord(fn func(w string, occurrences int)) {
	for _, w := range x.words {
		fn(w, len(x.byWord[w]))
	}
}

// Occurrences returns the tokens of every occurrence of the exact word w,
// sorted by start position.
func (x *WordIndex) Occurrences(w string) []text.Token {
	idxs := x.byWord[w]
	out := make([]text.Token, len(idxs))
	for i, ti := range idxs {
		out[i] = x.tokens[ti]
	}
	return out
}

// Postings is the posting list of one word read in place: its occurrences
// in document order, without the copy Occurrences makes. It is a
// region.Points, so the region kernels take it as it is.
type Postings struct {
	tokens []text.Token
	idxs   []int
}

// Postings returns the posting list of the exact word w.
func (x *WordIndex) Postings(w string) Postings {
	return Postings{tokens: x.tokens, idxs: x.byWord[w]}
}

// Len reports the number of occurrences.
func (p Postings) Len() int { return len(p.idxs) }

// At returns the i-th occurrence as a region the width of the word.
func (p Postings) At(i int) region.Region {
	return region.Region(p.tokens[p.idxs[i]])
}

// MatchPoints returns the match points (start positions) of the exact word
// w, the paper's "sets of match points ... position in the text of indexed
// strings". Regions of width equal to the word are returned so that match
// points compose with the region operators. The posting list is already in
// set order and duplicate-free, so the set is one copy of it.
func (x *WordIndex) MatchPoints(w string) region.Set {
	idxs := x.byWord[w]
	rs := make([]region.Region, len(idxs))
	for i, ti := range idxs {
		rs[i] = region.Region(x.tokens[ti])
	}
	return region.FromOrdered(rs)
}

// PrefixMatchPoints returns match points of every word beginning with the
// given prefix, found by binary search over the sistring array exactly as in
// PAT's lexicographical search.
func (x *WordIndex) PrefixMatchPoints(prefix string) region.Set {
	content := x.doc.Content()
	sistring := x.sistringArray()
	lo := sort.Search(len(sistring), func(i int) bool {
		return content[x.tokens[sistring[i]].Start:] >= prefix
	})
	var rs []region.Region
	for i := lo; i < len(sistring); i++ {
		tok := x.tokens[sistring[i]]
		if !strings.HasPrefix(content[tok.Start:], prefix) {
			break
		}
		if tok.Len() >= len(prefix) {
			rs = append(rs, region.Region{Start: tok.Start, End: tok.End})
		}
	}
	return region.FromRegions(rs)
}

// SubstringMatchPoints returns a region for every occurrence of the
// substring s anywhere in the document (not only at word boundaries),
// using a byte-level suffix array built on first use — the lexical search
// PAT performs on arbitrary sistrings.
func (x *WordIndex) SubstringMatchPoints(s string) region.Set {
	if s == "" {
		return region.Empty
	}
	x.sufOnce.Do(func() {
		x.suffixes = suffixarray.New([]byte(x.doc.Content()))
	})
	offsets := x.suffixes.Lookup([]byte(s), -1)
	rs := make([]region.Region, len(offsets))
	for i, off := range offsets {
		rs[i] = region.Region{Start: off, End: off + len(s)}
	}
	return region.FromRegions(rs)
}

// PrefixWords returns the distinct words beginning with the given prefix.
func (x *WordIndex) PrefixWords(prefix string) []string {
	lo := sort.SearchStrings(x.words, prefix)
	var out []string
	for i := lo; i < len(x.words) && strings.HasPrefix(x.words[i], prefix); i++ {
		out = append(out, x.words[i])
	}
	return out
}

// SelectContaining implements the σ_w selection of the region algebra: the
// regions of s that contain (at least one occurrence of) exactly the word w,
// where containment means the whole word lies within the region. On a
// disjoint s the postings probe s, O(occ(w) · log(|s|/occ(w))); otherwise
// each region searches the postings, O(|s| log occ(w)) (region.Set.Holding).
func (x *WordIndex) SelectContaining(s region.Set, w string) region.Set {
	out, _ := x.SelectContainingCtl(s, w, nil)
	return out
}

// SelectContainingCtl is SelectContaining with cooperative cancellation:
// check is polled periodically during the selection.
func (x *WordIndex) SelectContainingCtl(s region.Set, w string, check region.Checker) (region.Set, error) {
	return s.Holding(x.Postings(w), check)
}

// SelectPrefix returns the regions of s whose text starts with p. As with
// SelectEquals, the compiler emits it only for faithful leaf regions. Handed
// the set an instance holds under a name, it reads the name's value order
// (valueorder.go): O(log |s| + matches). Any other set is compared region
// by region.
func (x *WordIndex) SelectPrefix(s region.Set, p string) region.Set {
	out, _ := x.SelectPrefixCtl(s, p, nil)
	return out
}

// SelectPrefixCtl is SelectPrefix with cooperative cancellation.
func (x *WordIndex) SelectPrefixCtl(s region.Set, p string, check region.Checker) (region.Set, error) {
	return x.selectByText(s, p, strings.HasPrefix, check)
}

// SelectEquals returns the regions of s whose text is exactly w. The query
// compiler only emits it for leaf regions whose text equals their database
// value (bare-terminal productions); for other regions it falls back to
// word containment plus filtering. Cost is as for SelectPrefix.
func (x *WordIndex) SelectEquals(s region.Set, w string) region.Set {
	out, _ := x.SelectEqualsCtl(s, w, nil)
	return out
}

// SelectEqualsCtl is SelectEquals with cooperative cancellation.
func (x *WordIndex) SelectEqualsCtl(s region.Set, w string, check region.Checker) (region.Set, error) {
	return x.selectByText(s, w, textEquals, check)
}
