package index_test

import (
	"runtime"
	"strings"
	"testing"

	"qof/internal/bibtex"
	"qof/internal/index"
	"qof/internal/testutil"
	"qof/internal/text"
)

// oneReferenceEdit returns an n-reference file and the edit that replaces
// its middle reference's key: the old byte range and the edited document.
func oneReferenceEdit(tb testing.TB, n int) (doc *text.Document, start, oldEnd int, edited *text.Document) {
	tb.Helper()
	doc, _ = testutil.BibDoc(tb, "edit.bib", n, nil)
	content := doc.Content()
	start = strings.Index(content[len(content)/2:], "{") + len(content)/2 + 1
	oldEnd = start + strings.Index(content[start:], ",")
	return doc, start, oldEnd, text.NewDocument("edit.bib", content[:start]+"Edited01 x"+content[oldEnd:])
}

// TestBuildAndSpliceAllocationsDoNotScale pins, by counting, what the
// layout promises. NewWordIndex allocates its dictionary and its transients
// (a map and slices that double as the vocabulary grows, so a count
// logarithmic in it), never per occurrence and never per word. Splice
// allocates its three slices and the window: it builds no per-word lists
// and hashes nothing. So each fits one ceiling at 500 and at 5 000
// references, where the map-and-append layout went from 7.5k to 28k.
func TestBuildAndSpliceAllocationsDoNotScale(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	for _, n := range []int{500, 5000} {
		doc, start, oldEnd, edited := oneReferenceEdit(t, n)
		x := index.NewWordIndex(doc)
		if got := testing.AllocsPerRun(2, func() { index.NewWordIndex(doc) }); got > 200 {
			t.Errorf("%d references (%d tokens, %d words): NewWordIndex allocates %.0f times, ceiling 200", n, x.TokenCount(), x.WordCount(), got)
		}
		newEnd := oldEnd + edited.Len() - doc.Len()
		if got := testing.AllocsPerRun(2, func() { x.Splice(edited, start, oldEnd, newEnd) }); got > 12 {
			t.Errorf("%d references: Splice allocates %.0f times, ceiling 12", n, got)
		}
	}
}

// TestPrefixMatchPointsFirstCallIsSmall: prefix search reads the sorted
// dictionary and the slab the word index already holds and builds nothing
// beside them, so its first call on a 2 000-reference file allocates the
// answer and little else — under 64 KiB.
func TestPrefixMatchPointsFirstCallIsSmall(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation volumes under the race detector are not the program's")
	}
	doc, _ := testutil.BibDoc(t, "prefix.bib", 2000, nil)
	x := index.NewWordIndex(doc)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := x.PrefixMatchPoints("Cha")
	runtime.ReadMemStats(&after)
	if got.IsEmpty() {
		t.Fatal("no word of the file begins with Cha")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
		t.Errorf("the first PrefixMatchPoints(Cha) allocated %d bytes for %d matches, ceiling 64 KiB", n, got.Len())
	}
}

// BenchmarkSplice is a one-reference edit in a 5k-reference file.
func BenchmarkSplice(b *testing.B) {
	doc, start, oldEnd, edited := oneReferenceEdit(b, 5000)
	x := index.NewWordIndex(doc)
	newEnd := oldEnd + edited.Len() - doc.Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Splice(edited, start, oldEnd, newEnd)
	}
}

// BenchmarkWordIndexBuildBib is the build on generated references, whose
// vocabulary grows with the file, beside BenchmarkWordIndexBuild's fixed one.
func BenchmarkWordIndexBuildBib(b *testing.B) {
	doc, _ := testutil.BibDoc(b, "build.bib", 5000, func(cfg *bibtex.Config) { cfg.Seed = 3 })
	b.SetBytes(int64(doc.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		index.NewWordIndex(doc)
	}
}
