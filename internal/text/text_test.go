package text

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
	"unicode/utf8"
)

func TestTokenizeSimple(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"   ", nil},
		{"hello", []string{"hello"}},
		{"hello world", []string{"hello", "world"}},
		{"G. F. Corliss and Y. F. Chang", []string{"G", "F", "Corliss", "and", "Y", "F", "Chang"}},
		{"114--144", []string{"114", "144"}},
		{"@INCOLLECTION{Corl82a,", []string{"INCOLLECTION", "Corl82a"}},
		{"point algorithm; Taylor series;", []string{"point", "algorithm", "Taylor", "series"}},
		{"naïve café", []string{"naïve", "café"}},
		{"a", []string{"a"}},
		{"a b", []string{"a", "b"}},
		{"...!!!", nil},
		{"x1y2", []string{"x1y2"}},
	}
	for _, tc := range tests {
		toks := Tokenize(tc.in)
		var got []string
		for _, tok := range toks {
			got = append(got, tc.in[tok.Start:tok.End])
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestTokenizeOffsets(t *testing.T) {
	s := "  Chang, and Corliss "
	toks := Tokenize(s)
	if len(toks) != 3 {
		t.Fatalf("got %d tokens, want 3", len(toks))
	}
	if toks[0].Start != 2 || toks[0].End != 7 {
		t.Errorf("token 0 = [%d,%d), want [2,7)", toks[0].Start, toks[0].End)
	}
	if s[toks[2].Start:toks[2].End] != "Corliss" {
		t.Errorf("token 2 text = %q", s[toks[2].Start:toks[2].End])
	}
}

func TestTokenizeTrailingWord(t *testing.T) {
	toks := Tokenize("end")
	if len(toks) != 1 || toks[0].Start != 0 || toks[0].End != 3 {
		t.Fatalf("Tokenize(\"end\") = %v", toks)
	}
}

func TestTokensAreWords(t *testing.T) {
	// Property: every token produced by Tokenize satisfies IsWord, and
	// tokens are non-overlapping and in order.
	f := func(s string) bool {
		toks := Tokenize(s)
		prev := -1
		for _, tok := range toks {
			if tok.Start <= prev {
				return false
			}
			if !IsWord(s, tok.Start, tok.End) {
				return false
			}
			prev = tok.End - 1
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsWord(t *testing.T) {
	s := "the Changing of Chang"
	chang := strings.LastIndex(s, "Chang")
	if !IsWord(s, chang, chang+5) {
		t.Errorf("IsWord final Chang = false, want true")
	}
	// "Chang" inside "Changing" is not a whole word.
	first := strings.Index(s, "Chang")
	if IsWord(s, first, first+5) {
		t.Errorf("IsWord Chang-in-Changing = true, want false")
	}
	if IsWord(s, 0, 0) {
		t.Errorf("empty range is not a word")
	}
	if IsWord(s, 3, 5) { // "e C": contains a separator
		t.Errorf("range with separator is not a word")
	}
	if IsWord(s, -1, 2) || IsWord(s, 0, len(s)+1) {
		t.Errorf("out-of-range must be false")
	}
}

func TestContainsWholeWord(t *testing.T) {
	cases := []struct {
		s, w string
		want bool
	}{
		{"the Changing of Chang", "Chang", true},
		{"the Changing of others", "Chang", false}, // substring only
		{"Chang", "Chang", true},
		{"", "Chang", false},
		{"Chang", "", false},
		{"a b c", "b", true},
		{"ab c", "b", false},
		{"uses automatic differentiation to", "automatic differentiation", true}, // phrase
		{"semiautomatic differentiation", "automatic differentiation", false},
		{"automatic differentiations", "automatic differentiation", false},
		{"G. F. Corliss", "G. F.", true}, // phrase ending in punctuation
		{"e.g. G. F. problem", "G. F.", true},
		{"e.g. FG. F. problem", "G. F.", false}, // G is not word-initial there
		{"[1982]", "1982", true},
		{"x1982y", "1982", false},
		{"naïve café", "café", true},
		{"naïvecafé", "café", false}, // unicode word boundary
	}
	for _, tc := range cases {
		if got := ContainsWholeWord(tc.s, tc.w); got != tc.want {
			t.Errorf("ContainsWholeWord(%q, %q) = %v, want %v", tc.s, tc.w, got, tc.want)
		}
	}
}

func TestContainsWholeWordMatchesTokenization(t *testing.T) {
	// Property: for single clean words, ContainsWholeWord agrees with
	// token equality.
	f := func(s string) bool {
		toks := Tokenize(s)
		for _, tok := range toks {
			if !ContainsWholeWord(s, s[tok.Start:tok.End]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// containsWholeWordRef is ContainsWholeWord as it was before it searched
// with strings.Index: the same boundary tests at every byte offset.
func containsWholeWordRef(s, w string) bool {
	if w == "" {
		return false
	}
	for i := 0; i+len(w) <= len(s); i++ {
		if s[i:i+len(w)] != w {
			continue
		}
		if r, _ := utf8.DecodeLastRuneInString(s[:i]); i > 0 && IsWordRune(r) && startsWithWordRune(w) {
			continue
		}
		end := i + len(w)
		if r, _ := utf8.DecodeRuneInString(s[end:]); end < len(s) && IsWordRune(r) && endsWithWordRune(w) {
			continue
		}
		return true
	}
	return false
}

// TestContainsWholeWordMatchesReference: the search agrees with the
// per-offset loop on overlapping occurrences, on a first hit inside a word
// followed by a whole-word one, and on random strings of ASCII, multi-byte
// and invalid UTF-8 pieces, for words drawn from the same pieces and from
// the string itself.
func TestContainsWholeWordMatchesReference(t *testing.T) {
	for _, c := range []struct {
		s, w string
		want bool
	}{
		{"aaa", "aa", false},
		{"aa aaa", "aa", true},
		{"aaa aa", "aa", true},
		{"a-a-a", "a-a", true},
		{"xa-a-a", "a-a", true}, // only the overlapping second occurrence is whole
		{"xChang Chang", "Chang", true},
		{"Changing Chang", "Chang", true},
		{"Changing Changs", "Chang", false},
		{"日本日本 日本", "日本", true},
		{"é-é", "-", true},
		{"ab", "ab ", false},
	} {
		if got, ref := ContainsWholeWord(c.s, c.w), containsWholeWordRef(c.s, c.w); got != c.want || ref != c.want {
			t.Errorf("ContainsWholeWord(%q, %q) = %v, reference %v, want %v", c.s, c.w, got, ref, c.want)
		}
	}
	pieces := []string{"a", "a", "b", "Z", "9", " ", " ", "-", ".", "é", "日", "١", "—", "\xc3", "\xa9", "\xff"}
	rng := rand.New(rand.NewSource(11))
	draw := func(n int) string {
		var sb strings.Builder
		for ; n > 0; n-- {
			sb.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return sb.String()
	}
	for trial := 0; trial < 20000; trial++ {
		s := draw(rng.Intn(16))
		w := draw(1 + rng.Intn(3))
		if len(s) > 0 && trial%2 == 0 {
			i := rng.Intn(len(s))
			w = s[i : i+1+rng.Intn(min(4, len(s)-i))]
		}
		if got, want := ContainsWholeWord(s, w), containsWholeWordRef(s, w); got != want {
			t.Fatalf("ContainsWholeWord(%q, %q) = %v, reference %v", s, w, got, want)
		}
	}
}

func TestDocument(t *testing.T) {
	d := NewDocument("bib.bib", "AUTHOR = \"Chang\"")
	if d.Name() != "bib.bib" {
		t.Errorf("Name = %q", d.Name())
	}
	if d.Len() != 16 {
		t.Errorf("Len = %d", d.Len())
	}
	if got := d.Slice(10, 15); got != "Chang" {
		t.Errorf("Slice = %q", got)
	}
	toks := Tokenize(d.Content())
	if len(toks) != 2 || d.Token(toks[1]) != "Chang" {
		t.Errorf("Tokens = %v", toks)
	}
}

func TestDocumentSlicePanics(t *testing.T) {
	d := NewDocument("x", "abc")
	for _, rng := range [][2]int{{-1, 2}, {0, 4}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Slice(%d,%d) did not panic", rng[0], rng[1])
				}
			}()
			d.Slice(rng[0], rng[1])
		}()
	}
}

func TestTokenLen(t *testing.T) {
	if (Token{Start: 3, End: 10}).Len() != 7 {
		t.Error("Token.Len")
	}
}

// TestIsWordRuneASCIITable pins the 128-entry table equal to the unicode
// answer it stands in front of, and the rune values beside it.
func TestIsWordRuneASCIITable(t *testing.T) {
	for r := rune(-2); r < 0x300; r++ {
		if got, want := IsWordRune(r), unicode.IsLetter(r) || unicode.IsDigit(r); got != want {
			t.Errorf("IsWordRune(%#x) = %v, unicode says %v", r, got, want)
		}
	}
	for _, r := range []rune{utf8.RuneError, utf8.MaxRune, utf8.MaxRune + 1, '日', '١', '—'} {
		if got, want := IsWordRune(r), unicode.IsLetter(r) || unicode.IsDigit(r); got != want {
			t.Errorf("IsWordRune(%#x) = %v, unicode says %v", r, got, want)
		}
	}
}

// tokenizeRef is the tokenizer as it was before NextToken: one pass with a
// run-start state, every rune through the unicode tables.
func tokenizeRef(s string) []Token {
	var toks []Token
	start := -1
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			toks = append(toks, Token{Start: start, End: i})
			start = -1
		}
		i += size
	}
	if start >= 0 {
		toks = append(toks, Token{Start: start, End: len(s)})
	}
	return toks
}

// TestNextTokenMatchesReference: looping NextToken visits the reference
// tokenization on random byte strings — ASCII, multi-byte and invalid
// UTF-8 — and resuming from any token's End finds the next one.
func TestNextTokenMatchesReference(t *testing.T) {
	pieces := []string{"a", "Z", "9", " ", "-", "\n", "é", "日", "١", "—", "·", "\xc3", "\xa9", "\xff", "\xe2\x82", "\xf0\x9f"}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		var sb strings.Builder
		for i := rng.Intn(12); i > 0; i-- {
			sb.WriteString(pieces[rng.Intn(len(pieces))])
		}
		s := sb.String()
		want := tokenizeRef(s)
		if got := Tokenize(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("Tokenize(%q) = %v, reference %v", s, got, want)
		}
		from := 0
		for i, w := range want {
			tok, ok := NextToken(s, from)
			if !ok || tok != w {
				t.Fatalf("%q: token %d from %d is %v (%v), reference %v", s, i, from, tok, ok, w)
			}
			from = tok.End
		}
		if tok, ok := NextToken(s, from); ok {
			t.Fatalf("%q: a token %v past the last reference token", s, tok)
		}
	}
}
