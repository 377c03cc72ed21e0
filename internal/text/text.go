// Package text provides the document and tokenization layer underneath the
// indexing engine. A document is an immutable byte string; words are maximal
// runs of letters and digits, identified by byte offsets. All higher layers
// (word index, region algebra, structuring schemas) address text exclusively
// through byte offsets into a document, mirroring how the PAT system
// addresses its indexed text through positions.
package text

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Token is one word occurrence in a document: the half-open byte range
// [Start, End) holding the word.
type Token struct {
	Start int
	End   int
}

// Len reports the byte length of the token.
func (t Token) Len() int { return t.End - t.Start }

// Document is an immutable piece of indexed text. The zero value is an empty
// document.
type Document struct {
	name    string
	content string
}

// NewDocument creates a document with the given name (typically a file path)
// and content.
func NewDocument(name, content string) *Document {
	return &Document{name: name, content: content}
}

// Name returns the document's name.
func (d *Document) Name() string { return d.name }

// Content returns the full text of the document.
func (d *Document) Content() string { return d.content }

// Len returns the length of the document in bytes.
func (d *Document) Len() int { return len(d.content) }

// Slice returns the text in the half-open byte range [start, end).
// It panics if the range is out of bounds or inverted.
func (d *Document) Slice(start, end int) string {
	if start < 0 || end > len(d.content) || start > end {
		panic(fmt.Sprintf("text: slice [%d,%d) out of range (doc %q, len %d)", start, end, d.name, len(d.content)))
	}
	return d.content[start:end]
}

// Token reports the token text for the given token.
func (d *Document) Token(t Token) string { return d.Slice(t.Start, t.End) }

// asciiWord answers IsWordRune for the 128 ASCII values without the unicode
// tables: the tokenizer and the whole-word tests ask it for every byte.
var asciiWord = func() (t [utf8.RuneSelf]bool) {
	for r := rune(0); r < utf8.RuneSelf; r++ {
		t[r] = unicode.IsLetter(r) || unicode.IsDigit(r)
	}
	return t
}()

// IsWordRune reports whether r is part of a word. Words are maximal runs of
// letters and digits; everything else (punctuation, whitespace, markup)
// separates words.
func IsWordRune(r rune) bool {
	if uint32(r) < utf8.RuneSelf {
		return asciiWord[r]
	}
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

// wordRunEnd returns the end of the longest run, starting at byte offset i
// of s, of runes that are word runes (word true) or separators (word false).
func wordRunEnd(s string, i int, word bool) int {
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if asciiWord[c] != word {
				break
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if IsWordRune(r) != word {
			break
		}
		i += size
	}
	return i
}

// NextToken returns the first word token of s starting at or after byte
// offset from, which must not lie inside a word; ok is false when no word
// follows. Looping it from 0, each call from the previous token's End,
// visits the tokens of Tokenize without materializing them.
func NextToken(s string, from int) (tok Token, ok bool) {
	start := wordRunEnd(s, from, false)
	if start == len(s) {
		return Token{}, false
	}
	return Token{Start: start, End: wordRunEnd(s, start, true)}, true
}

// Tokenize splits s into word tokens. Offsets are byte offsets into s.
func Tokenize(s string) []Token {
	var toks []Token
	for tok, ok := NextToken(s, 0); ok; tok, ok = NextToken(s, tok.End) {
		toks = append(toks, tok)
	}
	return toks
}

// ContainsWholeWord reports whether w occurs in s delimited by word
// boundaries on both sides. w may be a phrase (internal separators are
// matched literally); only its ends must fall on word boundaries. The search
// jumps from one occurrence of w to the next and resumes a byte past a
// rejected one, so overlapping occurrences are all tried.
func ContainsWholeWord(s, w string) bool {
	if w == "" {
		return false
	}
	starts, ends := startsWithWordRune(w), endsWithWordRune(w)
	for from := 0; ; {
		j := strings.Index(s[from:], w)
		if j < 0 {
			return false
		}
		i := from + j
		from = i + 1
		if r, _ := utf8.DecodeLastRuneInString(s[:i]); i > 0 && IsWordRune(r) && starts {
			continue
		}
		end := i + len(w)
		if r, _ := utf8.DecodeRuneInString(s[end:]); end < len(s) && IsWordRune(r) && ends {
			continue
		}
		return true
	}
}

func startsWithWordRune(s string) bool {
	r, _ := utf8.DecodeRuneInString(s)
	return IsWordRune(r)
}

func endsWithWordRune(s string) bool {
	r, _ := utf8.DecodeLastRuneInString(s)
	return IsWordRune(r)
}

// IsWord reports whether the byte range [start, end) of s holds a whole word:
// the content is a run of word runes and the range is not extendable on
// either side. It is the primitive behind whole-word selection.
func IsWord(s string, start, end int) bool {
	if start < 0 || end > len(s) || start >= end {
		return false
	}
	for i := start; i < end; {
		r, size := utf8.DecodeRuneInString(s[i:])
		if !IsWordRune(r) {
			return false
		}
		i += size
	}
	if r, _ := utf8.DecodeLastRuneInString(s[:start]); start > 0 && IsWordRune(r) {
		return false
	}
	if r, _ := utf8.DecodeRuneInString(s[end:]); end < len(s) && IsWordRune(r) {
		return false
	}
	return true
}
