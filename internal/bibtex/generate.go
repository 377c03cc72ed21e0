package bibtex

import (
	"fmt"
	"math/rand"
	"strings"
)

// Config controls the synthetic bibliography generator. The zero value is
// not useful; start from DefaultConfig.
type Config struct {
	// NumRefs is the number of references to generate.
	NumRefs int
	// Seed makes generation deterministic.
	Seed int64
	// MaxAuthors and MaxEditors bound the people per field (≥1 each).
	MaxAuthors int
	MaxEditors int
	// AbstractWords is the abstract length in words.
	AbstractWords int
	// MaxKeywords bounds keywords per reference (≥1).
	MaxKeywords int

	// TargetName is a last name with controlled selectivity: it appears
	// as an author in TargetAuthorShare of the references and as an
	// editor in TargetEditorShare of them (shares in [0,1], applied
	// independently). Every experiment queries this name, so the shares
	// directly set answer size and candidate-set inflation.
	TargetName        string
	TargetAuthorShare float64
	TargetEditorShare float64
}

// DefaultConfig generates a workload resembling the paper's scenario:
// the target name "Chang" authors 1% of the references and edits 5%.
func DefaultConfig(numRefs int) Config {
	return Config{
		NumRefs:           numRefs,
		Seed:              1994,
		MaxAuthors:        3,
		MaxEditors:        2,
		AbstractWords:     30,
		MaxKeywords:       4,
		TargetName:        "Chang",
		TargetAuthorShare: 0.01,
		TargetEditorShare: 0.05,
	}
}

// Stats reports ground-truth facts about a generated corpus, used by tests
// to validate query answers independently of the engine.
type Stats struct {
	NumRefs          int
	TargetAsAuthor   int // references where TargetName is an author
	TargetAsEditor   int // references where TargetName is an editor
	TargetAsEither   int // union of the two
	SelfEditedByAuth int // references where some editor is also an author
}

// Generate produces a deterministic synthetic bibliography and its ground
// truth.
func Generate(cfg Config) (string, Stats) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var sb strings.Builder
	var st Stats
	st.NumRefs = cfg.NumRefs
	for i := 0; i < cfg.NumRefs; i++ {
		authors := people(rng, 1+rng.Intn(max(cfg.MaxAuthors, 1)))
		editors := people(rng, 1+rng.Intn(max(cfg.MaxEditors, 1)))
		asAuthor := rng.Float64() < cfg.TargetAuthorShare
		asEditor := rng.Float64() < cfg.TargetEditorShare
		if cfg.TargetName != "" {
			if asAuthor {
				authors[rng.Intn(len(authors))] = person{first: initials(rng), last: cfg.TargetName}
			}
			if asEditor {
				editors[rng.Intn(len(editors))] = person{first: initials(rng), last: cfg.TargetName}
			}
		}
		// Recompute ground truth from the final lists (a random author
		// could collide with the target name).
		isAuthor := containsLast(authors, cfg.TargetName)
		isEditor := containsLast(editors, cfg.TargetName)
		if isAuthor {
			st.TargetAsAuthor++
		}
		if isEditor {
			st.TargetAsEditor++
		}
		if isAuthor || isEditor {
			st.TargetAsEither++
		}
		if sharesLast(authors, editors) {
			st.SelfEditedByAuth++
		}

		fmt.Fprintf(&sb, "@INCOLLECTION{%s,\n", fmt.Sprintf("Key%06d", i))
		fmt.Fprintf(&sb, "AUTHOR = %q,\n", joinPeople(authors))
		fmt.Fprintf(&sb, "TITLE = %q,\n", titleFor(rng, i))
		fmt.Fprintf(&sb, "BOOKTITLE = %q,\n", "Proceedings of Volume "+word(rng))
		fmt.Fprintf(&sb, "YEAR = \"%d\",\n", 1970+rng.Intn(25))
		fmt.Fprintf(&sb, "EDITOR = %q,\n", joinPeople(editors))
		fmt.Fprintf(&sb, "PUBLISHER = %q,\n", publishers[rng.Intn(len(publishers))])
		lo := 1 + rng.Intn(400)
		fmt.Fprintf(&sb, "PAGES = \"%d--%d\",\n", lo, lo+rng.Intn(40))
		fmt.Fprintf(&sb, "REFERRED = %q,\n", referred(rng, i, cfg.NumRefs))
		fmt.Fprintf(&sb, "KEYWORDS = %q,\n", keywords(rng, 1+rng.Intn(max(cfg.MaxKeywords, 1))))
		fmt.Fprintf(&sb, "ABSTRACT = %q,\n", abstract(rng, cfg.AbstractWords))
		sb.WriteString("}\n")
	}
	return sb.String(), st
}

type person struct{ first, last string }

func people(rng *rand.Rand, n int) []person {
	out := make([]person, n)
	for i := range out {
		out[i] = person{first: initials(rng), last: lastNames[rng.Intn(len(lastNames))]}
	}
	return out
}

func containsLast(ps []person, last string) bool {
	for _, p := range ps {
		if p.last == last {
			return true
		}
	}
	return false
}

func sharesLast(a, b []person) bool {
	for _, p := range a {
		for _, q := range b {
			if p.last == q.last {
				return true
			}
		}
	}
	return false
}

func joinPeople(ps []person) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = p.first + " " + p.last
	}
	return strings.Join(parts, " and ")
}

func initials(rng *rand.Rand) string {
	n := 1 + rng.Intn(2)
	parts := make([]string, n)
	for i := range parts {
		parts[i] = string(rune('A'+rng.Intn(26))) + "."
	}
	return strings.Join(parts, " ")
}

func titleFor(rng *rand.Rand, i int) string {
	return fmt.Sprintf("On the %s of %s Systems %d",
		capitalize(word(rng)), capitalize(word(rng)), i)
}

func capitalize(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

func referred(rng *rand.Rand, i, total int) string {
	n := rng.Intn(4)
	parts := make([]string, 0, n)
	for k := 0; k < n; k++ {
		parts = append(parts, fmt.Sprintf("[Key%06d]", rng.Intn(max(total, 1))))
	}
	return strings.Join(parts, "; ")
}

func keywords(rng *rand.Rand, n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = word(rng) + " " + word(rng)
	}
	return strings.Join(parts, "; ")
}

func abstract(rng *rand.Rand, n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = word(rng)
	}
	return strings.Join(parts, " ")
}

// word draws from a skewed vocabulary: common words are drawn far more
// often than rare ones, approximating natural text.
func word(rng *rand.Rand) string {
	// Squaring the uniform draw skews towards low indexes.
	f := rng.Float64()
	return vocabulary[int(f*f*float64(len(vocabulary)))]
}

var publishers = []string{"SIAM", "ACM Press", "Springer", "North-Holland", "Wiley", "MIT Press"}

var lastNames = buildLastNames()

func buildLastNames() []string {
	base := []string{
		"Corliss", "Griewank", "Aberth", "Gupta", "Rall", "Moore", "Tompa",
		"Salminen", "Gonnet", "Abiteboul", "Cluet", "Kifer", "Sagiv",
		"Mendelzon", "Hull", "Vianu", "Ullman", "Codd", "Gray", "Stonebraker",
	}
	for i := 0; i < 180; i++ {
		base = append(base, fmt.Sprintf("Author%03d", i))
	}
	return base
}

var vocabulary = buildVocabulary()

func buildVocabulary() []string {
	base := []string{
		"the", "of", "a", "and", "to", "in", "for", "with", "on", "system",
		"algorithm", "differential", "equation", "automatic", "series",
		"taylor", "convergence", "radius", "program", "solve", "method",
		"numerical", "analysis", "error", "bound", "order", "point",
		"derivative", "function", "interval", "computation", "fortran",
	}
	for i := 0; i < 400; i++ {
		base = append(base, fmt.Sprintf("term%03d", i))
	}
	return base
}
