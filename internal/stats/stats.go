// Package stats reads the figures algebra.EstimateCost needs off an index
// instance: region cardinalities per class and word occurrence frequencies.
// They order operand evaluation by estimates grounded in the instance,
// where the paper's cost (Definition 3.4) counts operators alone.
package stats

import "qof/internal/index"

// Stats is a view of one instance: it copies nothing and reads the
// instance at call time, so it never describes an older version of it. A
// region count is a set's length and a word count a posting list's (one
// binary search over the dictionary). Like the instance, a Stats may be
// shared by any number of concurrent readers.
type Stats struct {
	in *index.Instance
}

// Collect returns the statistics view of an instance. It builds nothing,
// not even what the instance derives lazily (the universe waits for a
// direct-inclusion operator).
func Collect(in *index.Instance) *Stats { return &Stats{in: in} }

// DocLen returns the document length in bytes.
func (s *Stats) DocLen() int { return s.in.Document().Len() }

// TotalTokens returns the number of word occurrences in the document.
func (s *Stats) TotalTokens() int { return s.in.Words().TokenCount() }

// RegionCard returns the cardinality of a region name (0 if unindexed).
func (s *Stats) RegionCard(name string) int {
	if s == nil {
		return 0
	}
	set, _ := s.in.Region(name)
	return set.Len()
}

// WordFreq returns the occurrence count of the exact word w.
func (s *Stats) WordFreq(w string) int {
	if s == nil {
		return 0
	}
	return s.in.Words().Postings(w).Len()
}
