package index

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"qof/internal/text"
)

// TestSuffixRanksMatchesNaive checks the prefix-doubling ranks against a
// direct sort of all suffixes on random and adversarially repetitive inputs.
func TestSuffixRanksMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	random := make([]byte, 300)
	for i := range random {
		random[i] = byte('a' + rng.Intn(4))
	}
	cases := map[string]string{
		"empty":      "",
		"single":     "x",
		"random":     string(random),
		"repetitive": strings.Repeat("abc ", 100),
		"runs":       strings.Repeat("a", 200) + strings.Repeat("b", 100),
		"mixed":      "the cat saw the cat saw the dog",
	}
	for name, s := range cases {
		t.Run(name, func(t *testing.T) {
			got := suffixRanks(s)
			order := make([]int, len(s))
			for i := range order {
				order[i] = i
			}
			sort.Slice(order, func(a, b int) bool { return s[order[a]:] < s[order[b]:] })
			for rank, off := range order {
				if int(got[off]) != rank {
					t.Fatalf("suffix %q: rank %d, want %d", s[off:], got[off], rank)
				}
			}
		})
	}
}

// TestSistringRankedMatchesNaive checks that the ranked sistring build
// produces exactly the order of the naive full-suffix sort it replaced.
func TestSistringRankedMatchesNaive(t *testing.T) {
	docs := map[string]*text.Document{
		"bench":      benchDoc(500),
		"repetitive": text.NewDocument("rep", strings.Repeat("lorem ipsum dolor ", 60)),
		"empty":      text.NewDocument("empty", ""),
	}
	for name, doc := range docs {
		t.Run(name, func(t *testing.T) {
			x := NewWordIndex(doc)
			got := x.sistringArray()
			want := x.sortSistringNaive()
			if len(got) != len(want) {
				t.Fatalf("length %d, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("sistring[%d] = token %d, want %d", i, got[i], want[i])
				}
			}
		})
	}
}

// repetitiveDoc triggers the naive sort's quadratic behavior: every suffix
// comparison scans a long shared prefix.
func repetitiveDoc(nWords int) *text.Document {
	var sb strings.Builder
	for i := 0; i < nWords; i++ {
		sb.WriteString("lorem ipsum ")
	}
	return text.NewDocument("rep", sb.String())
}

func benchmarkSistring(b *testing.B, nWords int, naive bool) {
	doc := repetitiveDoc(nWords)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		x := NewWordIndex(doc)
		b.StartTimer()
		if naive {
			x.sortSistringNaive()
		} else {
			x.sistringArray()
		}
	}
}

func BenchmarkSistringRepetitive(b *testing.B) {
	for _, n := range []int{2000, 8000} {
		b.Run(fmt.Sprintf("ranked-%dw", n), func(b *testing.B) { benchmarkSistring(b, n, false) })
		b.Run(fmt.Sprintf("naive-%dw", n), func(b *testing.B) { benchmarkSistring(b, n, true) })
	}
}

// suffixRanks ranks every suffix of s, resolving all of them.
func suffixRanks(s string) []int32 {
	return suffixRanksAt(s, nil)
}

// sortSistringNaive is the direct suffix-comparison sort the ranked build
// replaced. It is kept as the correctness and performance reference for
// tests and benchmarks only.
func (x *WordIndex) sortSistringNaive() []uint32 {
	content := x.doc.Content()
	arr := slices.Clone(x.post)
	slices.SortFunc(arr, func(a, b uint32) int { return strings.Compare(content[a:], content[b:]) })
	return arr
}
