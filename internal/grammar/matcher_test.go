package grammar

import (
	"math/rand"
	"regexp"
	"strings"
	"testing"
)

// TestCompileSimpleAgainstRegexp checks the byte-scanner compiler against
// the regexp engine on every terminal pattern the built-in schemas use,
// over randomized inputs.
func TestCompileSimpleAgainstRegexp(t *testing.T) {
	patterns := []string{
		`[A-Za-z][A-Za-z0-9]*`,
		`[A-Za-z][A-Za-z0-9'-]*`,
		`[A-Za-z_][A-Za-z0-9_]*`,
		`[a-z][a-z0-9_-]*`,
		`[^"]*`,
		`[^\n]+`,
		`[^<]+`,
		`[0-9]+`,
		`[A-Za-z0-9][A-Za-z0-9 '-]*`,
		`x`,
		`\.`,
		`abc`,
		`a[0-9]*z`,
		// A starred group ending the pattern.
		`[A-Z]\.(?: [A-Z]\.)*`,
		`[0-9]+(?:,[0-9]+)*`,
		`[a-z]+(?:-[a-z]+[0-9]*)*`,
		`a(?:ba)*`,
		// A lone negated one-byte class goes to IndexByte.
		`[^,]*`,
		`[^\]]+`,
	}
	pieces := []string{
		"", "abc", "ABC09", "_id", "x-y'z", `with "quote"`, "line\nnext",
		"<tag>", "123", "0", " lead", "trail ", "naïve", "a.b", ".", "abcz",
		"a99z", "az", "az9",
		// For the group forms: whole iterations, an iteration cut off at
		// each point, a trailing separator, nothing after the head.
		"G.", "G. F.", "G. F. Corliss", "G. F", "G. ", "G.  F.", "G", "G.F.",
		"g. F.", "A. B. C. D. E", "1,22,333", "1,22,", "1,,2", ",1", "ab-cd9-e",
		"ab-", "ab-9", "aba", "ababa", "abab", "ab", "]", "a]b", ",", "a,b",
	}
	rng := rand.New(rand.NewSource(17))
	for _, pat := range patterns {
		m := compileSimple(pat)
		if m == nil {
			t.Errorf("compileSimple(%q) = nil, want a scanner", pat)
			continue
		}
		re := regexp.MustCompile("^(?:" + pat + ")")
		check := func(input string) {
			t.Helper()
			got := m(input)
			want := -1
			if loc := re.FindStringIndex(input); loc != nil {
				want = loc[1]
			}
			if got != want {
				t.Errorf("pattern %q on %q: scanner %d, regexp %d", pat, input, got, want)
			}
		}
		for _, p := range pieces {
			check(p)
		}
		for trial := 0; trial < 200; trial++ {
			var sb strings.Builder
			for k := 0; k < rng.Intn(4); k++ {
				sb.WriteString(pieces[rng.Intn(len(pieces))])
			}
			check(sb.String())
		}
	}
}

func TestCompileSimpleRejectsComplex(t *testing.T) {
	for _, pat := range []string{
		`INFO|WARN`,
		`[0-9]{4}`,
		// Groups other than one starred non-capturing group at the end.
		`a(?:b)+`,
		`a(?:b)*c`,
		`a(?:b(?:c)*)*`,
		`a(b)*`,
		`(?:ab)*`,
		`a(?:b`,
		`a(?:b*)*`, // an iteration may match nothing
		`a)`,
		// Greedy scanning would differ from the backtracking regexp.
		`[a-z]*z`,
		`[a-z]+[0-9]*z`,
		`a(?:-[a-z]*z)*`,
		`a?b`,
		`(ab)+`,
		`.`,
		`^x`,
		`x$`,
		`[é]`,
		`é`,
		// A lone negated class matches a whole multi-byte rune.
		`[^a-z]`,
		`x[^"]y`,
		`[a-`,
		`[]`,
		`\q`,
		``,
	} {
		if compileSimple(pat) != nil {
			t.Errorf("compileSimple(%q) compiled, want regexp fallback", pat)
		}
	}
}

func TestClassEdgeCases(t *testing.T) {
	// ']' first in a class is a literal member per RE2.
	m := compileSimple(`[]a]+`)
	if m == nil {
		t.Fatal("leading-] class rejected")
	}
	re := regexp.MustCompile(`^(?:[]a]+)`)
	for _, in := range []string{"]a]", "b", "a]", ""} {
		want := -1
		if loc := re.FindStringIndex(in); loc != nil {
			want = loc[1]
		}
		if got := m(in); got != want {
			t.Errorf("[]a]+ on %q: %d vs %d", in, got, want)
		}
	}
	// Trailing '-' is a literal.
	m2 := compileSimple(`[a-]+`)
	if m2 == nil {
		t.Fatal("trailing-dash class rejected")
	}
	if got := m2("a-b"); got != 2 {
		t.Errorf("[a-]+ on a-b = %d", got)
	}
	// Negated class matches multi-byte runes byte-wise with equal spans.
	m3 := compileSimple(`[^"]*`)
	if got := m3(`naïve"x`); got != len(`naïve`) {
		t.Errorf("[^\"]* on naïve\"x = %d, want %d", got, len(`naïve`))
	}
}

func TestBuiltinSchemasStillParse(t *testing.T) {
	// The schema packages exercise the scanners end to end; here just
	// confirm the mini-compiler handles the mini-bibtex fixture.
	_, _, tree := parseMini(t)
	if len(tree.Find("Reference")) != 2 {
		t.Fatal("references")
	}
}

// Pieces of the terminal patterns FuzzTerminalPattern draws: classes
// (negated, ranged, with a leading ] or a trailing -), escapes, plain bytes,
// and what compileSimple must refuse — a non-ASCII literal, an unescaped
// dot, a ? quantifier.
var (
	fuzzAtoms  = []string{`[a-z]`, `[A-Za-z0-9]`, `[^"]`, `[^<]`, `[^\n]`, `[0-9]`, `[ ]`, `[^a-z]`, `[]a]`, `[a-]`, `[a-z'-]`, `\.`, `\]`, `\n`, `-`, `a`, `z`, `,`, ` `, `é`, `.`}
	fuzzQuants = []string{"", "*", "+", "?"}
)

// fuzzPattern decodes a recipe into a terminal pattern: items, then
// nothing, the one starred group compileSimple accepts, or a near miss of
// it (a group without its *, items after the group, a capturing group), and
// sometimes a trailing ?. A recipe starting with 0xff is a pattern as it
// stands, so the fuzzer can leave the grammar altogether.
func fuzzPattern(recipe []byte) string {
	if len(recipe) > 0 && recipe[0] == 0xff {
		return string(recipe[1:])
	}
	next := func(n int) int {
		if len(recipe) == 0 {
			return 0
		}
		b := recipe[0]
		recipe = recipe[1:]
		return int(b) % n
	}
	var sb strings.Builder
	items := func() {
		for k := 1 + next(4); k > 0; k-- {
			sb.WriteString(fuzzAtoms[next(len(fuzzAtoms))])
			sb.WriteString(fuzzQuants[next(len(fuzzQuants))])
		}
	}
	items()
	switch next(6) {
	case 2:
		sb.WriteString("(?:")
		items()
		sb.WriteString(")*")
	case 3:
		sb.WriteString("(?:")
		items()
		sb.WriteString(")")
	case 4:
		sb.WriteString("(?:")
		items()
		sb.WriteString(")*")
		items()
	case 5:
		sb.WriteString("(")
		items()
		sb.WriteString(")*")
	}
	if next(4) == 0 {
		sb.WriteString("?")
	}
	return sb.String()
}

// FuzzTerminalPattern: whenever compileSimple turns a pattern into a byte
// scanner, the scanner matches what the anchored regexp matches, on any
// input. Its seeds are the committed corpus (testdata/fuzz), which runs
// with every go test.
func FuzzTerminalPattern(f *testing.F) {
	f.Fuzz(func(t *testing.T, recipe []byte, input string) {
		pattern := fuzzPattern(recipe)
		re, err := regexp.Compile("^(?:" + pattern + ")")
		if err != nil {
			return // AddTerminal refuses it before compileSimple sees it
		}
		m := compileSimple(pattern)
		if m == nil {
			return
		}
		want := -1
		if loc := re.FindStringIndex(input); loc != nil {
			want = loc[1]
		}
		if got := m(input); got != want {
			t.Fatalf("pattern %q on %q: scanner %d, regexp %d", pattern, input, got, want)
		}
	})
}

// TestPossessiveRefusalIsNeeded: the patterns compileSimple refuses for
// overlapping classes are exactly those where a scanner that never gives a
// byte back is wrong.
func TestPossessiveRefusalIsNeeded(t *testing.T) {
	items, _, ok := parseItems(`[a-z]*z`, 0)
	if !ok || possessive(items) {
		t.Fatal("[a-z]*z passes the possessive check")
	}
	re := regexp.MustCompile(`^(?:[a-z]*z)`)
	if got, want := scanItems(items, "abz", 0), re.FindStringIndex("abz")[1]; got == want {
		t.Errorf("greedy scan of [a-z]*z on abz agrees with the regexp (%d); the check refuses it for nothing", got)
	}
}
