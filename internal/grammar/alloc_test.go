package grammar_test

import (
	"reflect"
	"testing"

	"qof/internal/bibtex"
	"qof/internal/grammar"
	"qof/internal/logs"
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
		if _, err := g.ParseValue(doc, bibtex.NTReference, ref.Start, ref.End, nil); err != nil {
			t.Fatal(err)
		}
	})
	unpooled := testing.AllocsPerRun(100, func() {
		n, err := g.ParseAs(doc, bibtex.NTReference, int32(ref.Start), int32(ref.End))
		if err != nil {
			t.Fatal(err)
		}
		grammar.BuildValue(n, content)
	})
	t.Logf("allocations per region: BuildValue %.0f, ParseValue %.0f, ParseAs+BuildValue %.0f", build, pooled, unpooled)
	// The pooled parse adds nothing: every terminal class of the schema is a
	// byte scanner, and the tree stays in the runner's slabs.
	if pooled > build+1 {
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

// TestBibtexTerminalsAreScanners: every terminal class of the bibliography
// schema — the one the benchmark parses — compiles to a byte scanner; the
// hook does tell the two kinds apart, on the log schema's counted repetition
// and alternation.
func TestBibtexTerminalsAreScanners(t *testing.T) {
	if slow := bibtex.Grammar().RegexpTerminals(); len(slow) != 0 {
		t.Errorf("bibtex terminals on the regexp engine: %v", slow)
	}
	if slow := logs.Grammar().RegexpTerminals(); !reflect.DeepEqual(slow, []string{"DateTime", "LevelWord"}) {
		t.Errorf("logs terminals on the regexp engine: %v, want DateTime and LevelWord", slow)
	}
}
