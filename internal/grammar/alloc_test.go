package grammar_test

import (
	"testing"

	"qof/internal/bibtex"
	"qof/internal/grammar"
)

// TestPhase2AllocationCeilings pins what a candidate region costs in heap
// allocations, on the paper's Figure 1 entry (51 nodes). The value itself
// is 47 of them: a header and an attribute slice per tuple, a header and an
// element slice per set, one boxed string per leaf. The map-memo,
// node-per-allocation parser this replaced took 190 for ParseAs+BuildValue.
func TestPhase2AllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under the race detector")
	}
	g, doc, ref := sampleReference(t)
	content := doc.Content()
	build := testing.AllocsPerRun(100, func() {
		grammar.BuildValue(ref, content)
	})
	pooled := testing.AllocsPerRun(100, func() {
		if _, err := g.ParseValue(doc, bibtex.NTReference, ref.Start, ref.End); err != nil {
			t.Fatal(err)
		}
	})
	unpooled := testing.AllocsPerRun(100, func() {
		n, err := g.ParseAs(doc, bibtex.NTReference, ref.Start, ref.End)
		if err != nil {
			t.Fatal(err)
		}
		grammar.BuildValue(n, content)
	})
	t.Logf("allocations per region: BuildValue %.0f, ParseValue %.0f, ParseAs+BuildValue %.0f", build, pooled, unpooled)
	// The pooled parse adds only what the regexp engine allocates for the
	// one terminal class (Initials) the byte-scanner compiler cannot
	// express: one []int per match.
	if pooled > build+6 {
		t.Errorf("ParseValue: %.0f allocations, the value alone is %.0f; the pooled parse should add next to nothing", pooled, build)
	}
	// A fresh runner adds its fixed set: itself, one chunk each of nodes
	// and kids, the child stack, the memo table, the expected list.
	if unpooled > build+14 {
		t.Errorf("ParseAs+BuildValue: %.0f allocations, the value alone is %.0f", unpooled, build)
	}
	if build > 50 {
		t.Errorf("BuildValue: %.0f allocations for 51 nodes", build)
	}
}
