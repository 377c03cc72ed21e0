package grammar

// Terminal matcher compilation. Most terminal classes in structuring
// schemas are simple concatenations of character classes with * or +
// quantifiers (identifiers, numbers, free text up to a delimiter). Running
// those through the regexp NFA dominates parsing time, so AddTerminal
// compiles them to direct byte scanners and keeps the regexp only for
// patterns the mini-compiler cannot express (alternation, counted
// repetition, capturing or nested groups, Unicode classes).

import (
	"regexp"
	"strings"
)

// matcher reports the length of the match of a terminal at the start of s,
// or -1 when there is no match.
type matcher func(s string) int

// regexpMatcher wraps an anchored regexp.
func regexpMatcher(re *regexp.Regexp) matcher {
	return func(s string) int {
		loc := re.FindStringIndex(s)
		if loc == nil {
			return -1
		}
		return loc[1]
	}
}

// byteClass is a 256-entry membership table (ASCII byte classes; patterns
// with non-ASCII literals fall back to regexp).
type byteClass [256]bool

// classItem is one element of a compiled simple pattern.
type classItem struct {
	class byteClass
	min   int // 0 for *, 1 for single or +
	many  bool
}

// compileSimple builds a byte scanner for patterns of the form
//
//	item+            or            item+ (?: item+ )*
//
// where item := (class | char | escaped char) quantifier? and quantifier ∈
// {*, +}: a run of items, optionally followed by one starred non-capturing
// group of items that ends the pattern. It returns nil when the pattern is
// not of this form, or when scanning it greedily without backtracking could
// differ from the regexp (see possessive).
func compileSimple(pattern string) matcher {
	head, i, ok := parseItems(pattern, 0)
	if !ok || len(head) == 0 || !possessive(head) {
		return nil
	}
	if i == len(pattern) {
		if m := scanToByte(head); m != nil {
			return m
		}
		return func(s string) int { return scanItems(head, s, 0) }
	}
	// The rest must be exactly (?: item+ )* with an iteration that cannot
	// match the empty string.
	if !strings.HasPrefix(pattern[i:], "(?:") {
		return nil
	}
	group, j, ok := parseItems(pattern, i+len("(?:"))
	if !ok || pattern[j:] != ")*" || !possessive(group) || !consumes(group) {
		return nil
	}
	return func(s string) int {
		pos := scanItems(head, s, 0)
		for pos >= 0 {
			next := scanItems(group, s, pos)
			if next < 0 {
				break // an iteration cut off mid-way is not part of the match
			}
			pos = next
		}
		return pos
	}
}

// parseItems parses items from pattern[i:] up to the end of the pattern or
// the first parenthesis, returning them and the index it stopped at.
func parseItems(pattern string, i int) ([]classItem, int, bool) {
	var items []classItem
	for i < len(pattern) && pattern[i] != '(' && pattern[i] != ')' {
		var cls byteClass
		switch c := pattern[i]; {
		case c == '[':
			end, ok := parseClass(pattern[i:], &cls)
			if !ok {
				return nil, 0, false
			}
			i += end
		case c == '\\':
			if i+1 >= len(pattern) {
				return nil, 0, false
			}
			b, ok := escapedByte(pattern[i+1])
			if !ok {
				return nil, 0, false
			}
			cls[b] = true
			i += 2
		case strings.ContainsRune("|.^$?{}*+", rune(c)):
			return nil, 0, false // structure beyond the simple form
		case c < 0x80:
			cls[c] = true
			i++
		default:
			return nil, 0, false // non-ASCII literal
		}
		item := classItem{class: cls, min: 1}
		if i < len(pattern) {
			switch pattern[i] {
			case '*':
				item.min, item.many = 0, true
				i++
			case '+':
				item.min, item.many = 1, true
				i++
			case '?', '{':
				return nil, 0, false
			}
		}
		if !item.many && cls[0x80] {
			// A negated class standing once matches one rune, which may be
			// several bytes; a byte scanner would match one byte of it.
			return nil, 0, false
		}
		items = append(items, item)
	}
	return items, i, true
}

// possessive reports whether scanning the items greedily, never giving a
// byte back, matches what the backtracking regexp matches. That fails only
// when a * or + item could hand bytes to what follows it, so each one's
// class must be disjoint from every following item up to and including the
// first that has to match ([a-z]*z is refused: on "abz" the regexp gives the
// z back).
func possessive(items []classItem) bool {
	for i := range items {
		if !items[i].many {
			continue
		}
		for j := i + 1; j < len(items); j++ {
			for b := range items[i].class {
				if items[i].class[b] && items[j].class[b] {
					return false
				}
			}
			if items[j].min > 0 {
				break
			}
		}
	}
	return true
}

// consumes reports whether a match of the items is at least one byte long.
func consumes(items []classItem) bool {
	for i := range items {
		if items[i].min > 0 {
			return true
		}
	}
	return false
}

// scanItems matches the items at s[pos:] and returns the end of the match,
// or -1.
func scanItems(items []classItem, s string, pos int) int {
	for i := range items {
		it := &items[i]
		start := pos
		if it.many {
			for pos < len(s) && it.class[s[pos]] {
				pos++
			}
		} else if pos < len(s) && it.class[s[pos]] {
			pos++
		}
		if pos-start < it.min {
			return -1
		}
	}
	return pos
}

// scanToByte compiles a lone * or + item whose class excludes exactly one
// byte — free text up to a delimiter, [^"]* — to a search for that byte.
func scanToByte(items []classItem) matcher {
	if len(items) != 1 || !items[0].many {
		return nil
	}
	stop := -1
	for b, in := range items[0].class {
		if in {
			continue
		}
		if stop >= 0 {
			return nil
		}
		stop = b
	}
	if stop < 0 {
		return nil
	}
	atLeast := items[0].min
	return func(s string) int {
		n := strings.IndexByte(s, byte(stop))
		if n < 0 {
			n = len(s)
		}
		if n < atLeast {
			return -1
		}
		return n
	}
}

// parseClass parses a [...] class at the start of s into cls, returning the
// number of bytes consumed. Supports negation, ranges and escapes; rejects
// non-ASCII content.
func parseClass(s string, cls *byteClass) (int, bool) {
	if len(s) < 2 || s[0] != '[' {
		return 0, false
	}
	i := 1
	negate := false
	if s[i] == '^' {
		negate = true
		i++
	}
	var member [256]bool
	first := true
	for i < len(s) && (s[i] != ']' || first) {
		first = false
		var lo byte
		switch {
		case s[i] == '\\' && i+1 < len(s):
			b, ok := escapedByte(s[i+1])
			if !ok {
				return 0, false
			}
			lo = b
			i += 2
		case s[i] < 0x80:
			lo = s[i]
			i++
		default:
			return 0, false
		}
		hi := lo
		if i+1 < len(s) && s[i] == '-' && s[i+1] != ']' {
			i++
			switch {
			case s[i] == '\\' && i+1 < len(s):
				b, ok := escapedByte(s[i+1])
				if !ok {
					return 0, false
				}
				hi = b
				i += 2
			case s[i] < 0x80:
				hi = s[i]
				i++
			default:
				return 0, false
			}
		}
		if hi < lo {
			return 0, false
		}
		for b := int(lo); b <= int(hi); b++ {
			member[b] = true
		}
	}
	if i >= len(s) || s[i] != ']' {
		return 0, false
	}
	i++
	if negate {
		// Negated ASCII classes behave byte-wise like RE2's rune-wise
		// [^...] over valid UTF-8: every byte of a non-excluded rune
		// (including each byte of a multi-byte rune) is accepted, so
		// the matched span is identical.
		for b := 0; b < 256; b++ {
			member[b] = !member[b]
		}
	}
	*cls = member
	return i, true
}

func escapedByte(c byte) (byte, bool) {
	switch c {
	case 'n':
		return '\n', true
	case 't':
		return '\t', true
	case 'r':
		return '\r', true
	case '\\', '.', '[', ']', '(', ')', '*', '+', '?', '^', '$', '{', '}', '|', '-', '/', '\'', '"':
		return c, true
	}
	return 0, false
}
