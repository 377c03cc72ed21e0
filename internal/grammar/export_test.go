package grammar

// Hooks for the external grammar_test package, which holds the parser
// differential oracle: it has to import qgen for the generated corpora, and
// qgen imports this package.

// MiniBibtex, MiniDoc and MutatedInputs share the in-package fixtures.
var (
	MiniBibtex    = miniBibtex
	MutatedInputs = mutatedInputs
)

const MiniDoc = miniDoc

// TerminalMatch runs the terminal class's matcher at the start of s, as the
// parser does: the match length, or a value <= 0 for no match.
func (g *Grammar) TerminalMatch(name, s string) int { return g.terms[name](s) }
