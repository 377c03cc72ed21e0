// Package index implements the text-indexing engine underneath the region
// algebra: a word index recording the location of every word occurrence in a
// document (what the PAT system provides), named region indices, and a
// persistent on-disk format for both. An Instance is made once, by New, and
// never changes: an edit makes a new one.
//
// The paper assumes "that this is a service given by the underlying text
// indexing system" — this package is that service, reimplemented from the
// published PAT semantics: match points are word-start positions, regions
// are position pairs, and selection combines the two.
package index

import (
	"errors"
	"fmt"
	"index/suffixarray"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"qof/internal/region"
	"qof/internal/text"
)

// WordIndex records the position of every word occurrence in a document.
// It is one sorted dictionary over one slab of positions: a word's id is
// its rank in words, and post[offs[id]:offs[id+1]] holds the start offsets
// of its occurrences in document order. Every occurrence of a word has the
// word's length, so a start is all an occurrence needs: 4 bytes each, no
// token table. Exact-word lookup is a binary search of words, and the words
// beginning with a prefix are one run of them, so PAT's prefix search reads
// one contiguous stretch of the slab.
//
// A WordIndex is immutable after construction except for the lazily built
// suffix array, whose one-time construction is synchronized — concurrent
// queries may share one WordIndex freely.
type WordIndex struct {
	doc      *text.Document
	words    []string // distinct words, sorted; substrings of the document
	offs     []uint32 // len(words)+1 group boundaries in post
	post     []uint32 // occurrence starts, grouped by word, ascending in a group
	sufOnce  sync.Once
	suffixes *suffixarray.Index // byte-level suffix array; built lazily
}

// ErrDocumentTooLarge reports a document whose offsets do not fit the
// index's 32-bit positions.
var ErrDocumentTooLarge = errors.New("index: document too large")

// maxDocLen is a variable so that tests can lower it; nothing else writes it.
var maxDocLen = math.MaxInt32

// CheckDocument returns ErrDocumentTooLarge if doc cannot be indexed. The
// grammar's build, Load and the engine's edits — where a document enters an
// index from outside — call it, so NewWordIndex and Splice return no error.
func CheckDocument(doc *text.Document) error {
	if doc.Len() > maxDocLen {
		return fmt.Errorf("%w: %s is %d bytes, the limit is %d", ErrDocumentTooLarge, doc.Name(), doc.Len(), maxDocLen)
	}
	return nil
}

// NewWordIndex tokenizes the document and builds the word index.
func NewWordIndex(doc *text.Document) *WordIndex {
	x, err := buildWordIndex(doc, nil)
	if err != nil {
		panic(err) // an entry point skipped CheckDocument
	}
	return x
}

// buildWordIndex builds the word index in two counting passes. The first
// tokenizes: it gives each distinct word a provisional id, counts its
// occurrences and notes each token's id and start. The ids are then sorted
// into ranks and the counts prefix-summed into group boundaries, and the
// second pass scatters every start into its group. A word is hashed once
// per occurrence, and the id map, the per-token notes and the counters are
// garbage on return. each, if not nil, sees every token in document order
// and its error abandons the build (Load checks a stored table with it).
func buildWordIndex(doc *text.Document, each func(text.Token) error) (*WordIndex, error) {
	if err := CheckDocument(doc); err != nil {
		return nil, err
	}
	s := doc.Content()
	ids := make(map[string]uint32)
	var words []string                  // by provisional id: order of first occurrence
	var next []uint32                   // by provisional id: occurrences, then write cursor
	toks := make([]uint64, 0, len(s)/6) // id<<32 | start; prose has a token per 6-8 bytes
	for tok, ok := text.NextToken(s, 0); ok; tok, ok = text.NextToken(s, tok.End) {
		if each != nil {
			if err := each(tok); err != nil {
				return nil, err
			}
		}
		id, seen := ids[s[tok.Start:tok.End]]
		if !seen {
			id = uint32(len(words))
			words = append(words, s[tok.Start:tok.End])
			ids[words[id]] = id
			next = append(next, 0)
		}
		next[id]++
		toks = append(toks, uint64(id)<<32|uint64(tok.Start))
	}
	order := make([]uint32, len(words))
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int { return strings.Compare(words[a], words[b]) })
	x := &WordIndex{doc: doc, words: make([]string, len(words)), offs: make([]uint32, len(words)+1), post: make([]uint32, len(toks))}
	n := uint32(0)
	for rank, id := range order {
		x.words[rank], x.offs[rank] = words[id], n
		n, next[id] = n+next[id], n
	}
	x.offs[len(words)] = n
	for _, t := range toks {
		x.post[next[t>>32]] = uint32(t)
		next[t>>32]++
	}
	return x, nil
}

// Document returns the indexed document.
func (x *WordIndex) Document() *text.Document { return x.doc }

// TokenCount reports the number of word occurrences in the document.
func (x *WordIndex) TokenCount() int { return len(x.post) }

// WordCount reports the number of distinct words in the document.
func (x *WordIndex) WordCount() int { return len(x.words) }

// sizeBytes is what the dictionary and the slab hold: a string header a
// word (its text is the document's) and 4 bytes a boundary and a position.
func (x *WordIndex) sizeBytes() int {
	return 16*len(x.words) + 4*(len(x.offs)+len(x.post))
}

// ForEachWord calls fn for every distinct word with its occurrence count,
// in sorted word order: the whole dictionary, for checks that compare it
// against a reference.
func (x *WordIndex) ForEachWord(fn func(w string, occurrences int)) {
	for i, w := range x.words {
		fn(w, int(x.offs[i+1]-x.offs[i]))
	}
}

// Postings is the posting list of one word read in place: the starts of its
// occurrences in document order and the width they share, the word's
// length. It is a region.Points, so the region kernels take it as it is.
type Postings struct {
	starts []uint32
	width  int32
}

// Postings returns the posting list of the exact word w.
func (x *WordIndex) Postings(w string) Postings {
	i, found := slices.BinarySearch(x.words, w)
	if !found {
		return Postings{}
	}
	return Postings{starts: x.post[x.offs[i]:x.offs[i+1]], width: int32(len(w))}
}

// Len reports the number of occurrences.
func (p Postings) Len() int { return len(p.starts) }

// At returns the i-th occurrence as a region the width of the word.
func (p Postings) At(i int) region.Region {
	start := int32(p.starts[i])
	return region.Region{Start: start, End: start + p.width}
}

// MatchPoints returns the match points (start positions) of the exact word
// w, the paper's "sets of match points ... position in the text of indexed
// strings". Regions of width equal to the word are returned so that match
// points compose with the region operators. The posting list is already in
// set order and duplicate-free, so the set is one copy of it.
func (x *WordIndex) MatchPoints(w string) region.Set {
	p := x.Postings(w)
	rs := make([]region.Region, p.Len())
	for i := range rs {
		rs[i] = p.At(i)
	}
	return region.FromOrdered(rs)
}

// PrefixMatchPoints returns the match points of every word beginning with
// the given prefix, PAT's lexicographical search: those words are one run
// of the sorted dictionary, found by binary search, and their starts one
// contiguous stretch of the slab. Each start becomes a region the width of
// its word, and the regions are sorted into set order.
func (x *WordIndex) PrefixMatchPoints(prefix string) region.Set {
	lo, hi := x.prefixRange(prefix)
	rs := make([]region.Region, 0, x.offs[hi]-x.offs[lo])
	for i := lo; i < hi; i++ {
		width := int32(len(x.words[i]))
		for _, start := range x.post[x.offs[i]:x.offs[i+1]] {
			rs = append(rs, region.Region{Start: int32(start), End: int32(start) + width})
		}
	}
	return region.FromOrdered(rs)
}

// prefixRange returns the run words[lo:hi] of the words beginning with
// prefix.
func (x *WordIndex) prefixRange(prefix string) (lo, hi int) {
	lo = sort.SearchStrings(x.words, prefix)
	hi = lo + sort.Search(len(x.words)-lo, func(i int) bool { return !strings.HasPrefix(x.words[lo+i], prefix) })
	return lo, hi
}

// SubstringMatchPoints returns a region for every occurrence of the
// substring s anywhere in the document (not only at word boundaries),
// using a byte-level suffix array built on first use — the lexical search
// PAT performs on arbitrary sistrings (semi-infinite strings).
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
		rs[i] = region.Of(off, off+len(s))
	}
	return region.FromRegions(rs)
}

// PrefixWords returns the distinct words beginning with the given prefix.
func (x *WordIndex) PrefixWords(prefix string) []string {
	lo, hi := x.prefixRange(prefix)
	if lo == hi {
		return nil
	}
	return slices.Clone(x.words[lo:hi])
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
