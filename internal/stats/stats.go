// Package stats collects per-instance statistics at index time: region
// cardinalities per class and word occurrence frequencies from the inverted
// index. The figures feed algebra.EstimateCost — the cardinality-aware
// costing that orders operand evaluation and prices the engine's result
// cache — replacing the paper's purely static operator-count cost
// (Definition 3.4) with estimates grounded in the actual instance, in the
// spirit of the statistics-driven planners of the related file-querying
// systems.
package stats

import (
	"qof/internal/index"
)

// Stats summarizes one instance. A Stats value is immutable after Collect
// and may be shared by any number of concurrent readers.
type Stats struct {
	// DocLen is the document length in bytes.
	DocLen int
	// TotalTokens is the number of word occurrences in the document.
	TotalTokens int
	// DistinctWords is the vocabulary size.
	DistinctWords int
	// Regions maps each indexed region name to its cardinality.
	Regions map[string]int
	// WordOcc maps each distinct word to its occurrence count.
	WordOcc map[string]int
	// Epoch is the instance epoch the statistics were collected at;
	// comparing it against Instance.Epoch detects staleness.
	Epoch uint64
}

// Collect gathers statistics from an instance. It reads the named sets'
// lengths and the word index's counts, and builds nothing the instance
// derives lazily (the universe waits for a direct-inclusion operator).
func Collect(in *index.Instance) *Stats {
	doc := in.Document()
	st := &Stats{
		DocLen:        doc.Len(),
		TotalTokens:   in.Words().TokenCount(),
		DistinctWords: in.Words().WordCount(),
		Regions:       make(map[string]int),
		WordOcc:       make(map[string]int, in.Words().WordCount()),
		Epoch:         in.Epoch(),
	}
	for _, name := range in.Names() {
		st.Regions[name] = in.MustRegion(name).Len()
	}
	in.Words().ForEachWord(func(w string, occ int) {
		st.WordOcc[w] = occ
	})
	return st
}

// RegionCard returns the cardinality of a region name (0 if unindexed).
func (s *Stats) RegionCard(name string) int {
	if s == nil {
		return 0
	}
	return s.Regions[name]
}

// WordFreq returns the occurrence count of the exact word w.
func (s *Stats) WordFreq(w string) int {
	if s == nil {
		return 0
	}
	return s.WordOcc[w]
}
