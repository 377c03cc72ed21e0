package grammar

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"qof/internal/text"
)

// TestParseNeverPanics drives the parser with arbitrary garbage: it must
// return errors, never panic, and never mis-report success.
func TestParseNeverPanics(t *testing.T) {
	g := miniBibtex(t)
	f := func(s string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		doc := text.NewDocument("fuzz", s)
		tree, err := g.Parse(doc)
		if err == nil && tree == nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// mutatedInputs returns a valid corpus mutated at random positions, 200
// times over; the differential oracle parses the same inputs.
func mutatedInputs() []string {
	rng := rand.New(rand.NewSource(77))
	base := strings.Repeat(miniDoc, 2)
	out := make([]string, 200)
	for trial := range out {
		mutated := []byte(base)
		for k := 0; k < 1+rng.Intn(4); k++ {
			mutated[rng.Intn(len(mutated))] = byte(32 + rng.Intn(95))
		}
		out[trial] = string(mutated)
	}
	return out
}

// TestParseMutatedCorpus parses the mutated corpus; every outcome must be a
// clean parse or a positioned error.
func TestParseMutatedCorpus(t *testing.T) {
	g := miniBibtex(t)
	for trial, mutated := range mutatedInputs() {
		doc := text.NewDocument("mut", mutated)
		tree, err := g.Parse(doc)
		if err != nil {
			perr, ok := err.(*ParseError)
			if !ok {
				t.Fatalf("trial %d: error type %T: %v", trial, err, err)
			}
			if perr.Offset < 0 || perr.Offset > len(mutated) {
				t.Fatalf("trial %d: offset %d out of range", trial, perr.Offset)
			}
			continue
		}
		// Successful parses must produce sane, strictly nested regions.
		bad := false
		tree.Walk(func(n *Node) bool {
			if n.Start < 0 || n.End > len(mutated) || n.Start > n.End {
				bad = true
			}
			for _, k := range n.Kids {
				if k.Start < n.Start || k.End > n.End {
					bad = true
				}
			}
			return !bad
		})
		if bad {
			t.Fatalf("trial %d: malformed spans in successful parse", trial)
		}
	}
}

// TestParseAsArbitraryRanges parses random subranges as random symbols:
// errors are fine, panics and span escapes are not.
func TestParseAsArbitraryRanges(t *testing.T) {
	g := miniBibtex(t)
	doc := text.NewDocument("mini", miniDoc)
	syms := append(g.NonTerminals(), "Unknown")
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 300; trial++ {
		a := rng.Intn(doc.Len() + 1)
		b := a + rng.Intn(doc.Len()-a+1)
		sym := syms[rng.Intn(len(syms))]
		node, err := g.ParseAs(doc, sym, int32(a), int32(b))
		if err != nil {
			continue
		}
		if node.Start < a || node.End > b {
			t.Fatalf("trial %d: span [%d,%d) escapes [%d,%d)", trial, node.Start, node.End, a, b)
		}
	}
	// Ranges outside the document, or inverted, are errors naming the
	// region and the document — not slice panics. engine/update.go passes
	// caller-derived offsets here.
	n := doc.Len()
	for _, rg := range [][2]int{{-1, n}, {0, n + 1}, {n + 1, n + 2}, {-5, -2}, {10, 3}, {n, 0}} {
		for _, parse := range []func() error{
			func() error { _, err := g.ParseAs(doc, "Reference", int32(rg[0]), int32(rg[1])); return err },
			func() error { _, err := g.ParseValue(doc, "Reference", rg[0], rg[1], nil); return err },
		} {
			err := parse()
			if err == nil {
				t.Fatalf("range [%d,%d) of a %d-byte document accepted", rg[0], rg[1], n)
			}
			want := fmt.Sprintf("[%d,%d)", rg[0], rg[1])
			if !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "mini") {
				t.Errorf("range %s: error %q does not name the region and document", want, err)
			}
		}
	}
}
