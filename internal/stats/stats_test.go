package stats

import (
	"testing"

	"qof/internal/index"
	"qof/internal/region"
	"qof/internal/text"
)

func testInstance(t *testing.T) *index.Instance {
	t.Helper()
	doc := text.NewDocument("t", "alpha beta alpha gamma beta alpha")
	in := index.NewInstance(doc)
	in.Define("Outer", region.FromRegions([]region.Region{{Start: 0, End: 16}, {Start: 17, End: 33}}))
	in.Define("Inner", region.FromRegions([]region.Region{{Start: 0, End: 5}, {Start: 17, End: 22}}))
	return in
}

func TestCollect(t *testing.T) {
	in := testInstance(t)
	st := Collect(in)
	if st.DocLen != in.Document().Len() {
		t.Errorf("DocLen = %d, want %d", st.DocLen, in.Document().Len())
	}
	if st.TotalTokens != 6 {
		t.Errorf("TotalTokens = %d, want 6", st.TotalTokens)
	}
	if st.DistinctWords != 3 {
		t.Errorf("DistinctWords = %d, want 3", st.DistinctWords)
	}
	if got := st.WordFreq("alpha"); got != 3 {
		t.Errorf("WordFreq(alpha) = %d, want 3", got)
	}
	if got := st.WordFreq("absent"); got != 0 {
		t.Errorf("WordFreq(absent) = %d, want 0", got)
	}
	if got := st.RegionCard("Outer"); got != 2 {
		t.Errorf("RegionCard(Outer) = %d, want 2", got)
	}
	if got := st.RegionCard("Nope"); got != 0 {
		t.Errorf("RegionCard(Nope) = %d, want 0", got)
	}
	if st.Epoch != in.Epoch() {
		t.Errorf("Epoch = %d, want %d", st.Epoch, in.Epoch())
	}
}

func TestNilReceivers(t *testing.T) {
	var st *Stats
	if st.RegionCard("A") != 0 || st.WordFreq("w") != 0 {
		t.Error("nil Stats accessors must return 0")
	}
}
