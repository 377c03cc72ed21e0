package index

import (
	"fmt"
	"sort"

	"qof/internal/region"
	"qof/internal/text"
)

// Instance is an instance of a region index in the paper's sense: a mapping
// from region names to sets of regions over one indexed document, together
// with the document's word index. It is the store the region algebra
// evaluates against.
//
// An Instance is a value: New makes it complete and nothing changes its
// contents after, so any number of goroutines may read it. An edit makes a
// new instance. The only state built after New — a name's value order and
// the suffix array in WordIndex — is derived, lazy and guarded internally;
// the direct-inclusion operators build what they read per call.
type Instance struct {
	words   *WordIndex
	regions map[string]region.Set
	scopes  map[string]string // name -> surrounding region name for selective indexes
}

// New returns the instance over words' document that indexes each set of
// sets under its name, selectively inside scopes[name] when that is not ""
// (Section 7 of the paper: "index only those that reside in some Authors
// region"; query compilation uses such a name only on paths passing through
// its scope). Every instance — built, loaded or edited — comes from New. It
// attaches to each set a fresh memo, the slot where the word index keeps
// the name's value order (valueorder.go). The maps are not retained.
func New(words *WordIndex, sets map[string]region.Set, scopes map[string]string) *Instance {
	in := &Instance{
		words:   words,
		regions: make(map[string]region.Set, len(sets)),
		scopes:  make(map[string]string),
	}
	for name, s := range sets {
		in.regions[name] = s.WithMemo()
		if w := scopes[name]; w != "" {
			in.scopes[name] = w
		}
	}
	return in
}

// Document returns the indexed document.
func (in *Instance) Document() *text.Document { return in.words.Document() }

// Words returns the word index of the document.
func (in *Instance) Words() *WordIndex { return in.words }

// Scope returns the scope of a selectively indexed name ("" for global or
// unindexed names).
func (in *Instance) Scope(name string) string { return in.scopes[name] }

// Has reports whether the region name is indexed.
func (in *Instance) Has(name string) bool {
	_, ok := in.regions[name]
	return ok
}

// Region returns the instance of the region name and whether it is indexed.
func (in *Instance) Region(name string) (region.Set, bool) {
	s, ok := in.regions[name]
	return s, ok
}

// MustRegion returns the instance of the region name, panicking if the name
// is not indexed.
func (in *Instance) MustRegion(name string) region.Set {
	s, ok := in.regions[name]
	if !ok {
		panic(fmt.Sprintf("index: region %q is not indexed", name))
	}
	return s
}

// Names returns the indexed region names in sorted order.
func (in *Instance) Names() []string {
	names := make([]string, 0, len(in.regions))
	for n := range in.regions {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Sets returns the named sets in the order of Names: what the direct
// operators read to rule out a region lying in between.
func (in *Instance) Sets() []region.Set {
	sets := make([]region.Set, 0, len(in.regions))
	for _, n := range in.Names() {
		sets = append(sets, in.regions[n])
	}
	return sets
}

// Universe is the named sets for the benchmark's ⊃d kernel probe, which
// calls its DirectlyIncluding; nothing else uses it (ROADMAP item 1's shim
// list). It is made per call and never kept.
type Universe []region.Set

// Universe returns the named sets as a Universe.
func (in *Instance) Universe() Universe { return in.Sets() }

// DirectlyIncluding returns R ⊃d S over u's sets.
func (u Universe) DirectlyIncluding(R, S region.Set) region.Set {
	out, _ := region.DirectlyIncluding(R, S, u, nil, nil) // a nil checker cannot fail
	return out
}

// RegionCount reports the total number of indexed regions across all names.
func (in *Instance) RegionCount() int {
	n := 0
	for _, s := range in.regions {
		n += s.Len()
	}
	return n
}

// SizeBytes reports what the index structures hold in memory:
// region.Bytes (two int32 endpoints, eight bytes) a region in the named
// sets plus the word index's dictionary and positions slab. It is used by
// the indexing-tradeoff experiments and deliberately excludes the document
// text itself and what queries derive lazily (value orders, suffix array).
func (in *Instance) SizeBytes() int {
	return region.Bytes*in.RegionCount() + in.words.sizeBytes()
}
