package index

import (
	"cmp"
	"slices"
	"strings"
	"unicode/utf8"

	"qof/internal/text"
)

// Splice derives the word index of an edited document from this one
// without re-scanning the unchanged text: the bytes [editStart, oldEnd) of
// the old document were replaced by newDoc[editStart:newEnd). It works on
// byte positions alone. A window around the edit is found from the text;
// every word keeps its starts before the window, drops those inside it and
// shifts those after it by the edit's byte delta, and the window of the new
// document is re-tokenized and its words merged into the dictionary. Only
// the window's tokens are compared as strings — the dominant cost of
// word-index construction, hashing every occurrence, is not paid again.
//
// The window is bounded by ASCII separator bytes outside the edit. The
// tokenizer decodes such a byte on its own whatever precedes it, so no
// token spans one, and the old and the new document tokenize alike up to
// the left one and alike (shifted) from the right one on — also when the
// edit splits a multi-byte rune or the text is not valid UTF-8.
func (x *WordIndex) Splice(newDoc *text.Document, editStart, oldEnd, newEnd int) *WordIndex {
	if err := CheckDocument(newDoc); err != nil {
		panic(err) // an entry point skipped CheckDocument
	}
	old, content := x.doc.Content(), newDoc.Content()
	delta := newEnd - oldEnd
	lo := editStart
	for lo > 0 && !asciiSeparator(old[lo-1]) {
		lo--
	}
	hi := oldEnd // in the old document; hi+delta in the new one
	for hi < len(old) && !asciiSeparator(old[hi]) {
		hi++
	}

	// The window's tokens, grouped by word in dictionary order.
	win := text.Tokenize(content[lo : hi+delta])
	word := func(t text.Token) string { return content[lo+t.Start : lo+t.End] }
	slices.SortFunc(win, func(a, b text.Token) int {
		return cmp.Or(strings.Compare(word(a), word(b)), cmp.Compare(a.Start, b.Start))
	})

	n := len(x.post) - len(text.Tokenize(old[lo:hi])) + len(win)
	out := &WordIndex{
		doc:   newDoc,
		words: make([]string, 0, len(x.words)+len(win)),
		offs:  make([]uint32, 0, len(x.words)+len(win)+1),
		post:  make([]uint32, 0, n),
	}
	for i, k := 0, 0; i < len(x.words) || k < len(win); {
		c := -1 // the next word is the old dictionary's (-1), the window's (1) or both's (0)
		switch {
		case i == len(x.words):
			c = 1
		case k < len(win):
			c = strings.Compare(x.words[i], word(win[k]))
		}
		first := len(out.post)
		var g []uint32 // the old word's starts; none for a word the window brings
		w := ""
		if c <= 0 {
			g, w = x.post[x.offs[i]:x.offs[i+1]], x.words[i]
			i++
		}
		a, _ := slices.BinarySearch(g, uint32(lo))
		b, _ := slices.BinarySearch(g, uint32(hi))
		out.post = append(out.post, g[:a]...)
		if c >= 0 {
			for w = word(win[k]); k < len(win) && word(win[k]) == w; k++ {
				out.post = append(out.post, uint32(lo+win[k].Start))
			}
		}
		for _, start := range g[b:] {
			out.post = append(out.post, uint32(int(start)+delta))
		}
		if len(out.post) > first {
			// The dictionary's text is the new document's, so the old
			// document is not kept alive by it.
			at := int(out.post[first])
			out.words = append(out.words, content[at:at+len(w)])
			out.offs = append(out.offs, uint32(first))
		}
	}
	out.offs = append(out.offs, uint32(len(out.post)))
	// The suffix array is lazy and depends on the whole text; the new
	// index builds its own on first use.
	return out
}

// asciiSeparator reports whether c is an ASCII byte that is not part of a word.
func asciiSeparator(c byte) bool {
	return c < utf8.RuneSelf && !text.IsWordRune(rune(c))
}
