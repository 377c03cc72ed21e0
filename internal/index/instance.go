package index

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"qof/internal/region"
	"qof/internal/text"
)

// Instance is an instance of a region index in the paper's sense: a mapping
// from region names to sets of regions over one indexed document, together
// with the document's word index. It is the store the region algebra
// evaluates against.
//
// An Instance is safe for concurrent readers once indexing is finished:
// Define/DefineScoped/Drop are build-time operations and must not overlap
// with queries, but every read path (Region, Words, Universe, ...) may be
// called from any number of goroutines. The only mutable state after
// building — the universe here, built on the first direct-inclusion
// operator, and the lazy sistring and suffix arrays in WordIndex — is
// guarded internally.
type Instance struct {
	words   *WordIndex
	regions map[string]region.Set
	scopes  map[string]string // name -> surrounding region name for selective indexes

	uniMu    sync.Mutex
	universe *region.Universe // guarded by uniMu; lazily built, nil when stale

	// epoch counts the mutations applied to this instance. Caches keyed by
	// instance contents (the engine's cross-query result cache) include the
	// epoch in their keys so Define/Drop/Splice invalidate them.
	epoch atomic.Uint64
}

// NewInstance creates an empty instance over the document.
func NewInstance(doc *text.Document) *Instance {
	return &Instance{
		words:   NewWordIndex(doc),
		regions: make(map[string]region.Set),
		scopes:  make(map[string]string),
	}
}

// Document returns the indexed document.
func (in *Instance) Document() *text.Document { return in.words.Document() }

// Words returns the word index of the document.
func (in *Instance) Words() *WordIndex { return in.words }

// Define installs (or replaces) the instance of the region name as a global
// (unscoped) index.
func (in *Instance) Define(name string, s region.Set) {
	in.install(name, s)
	delete(in.scopes, name)
	in.invalidateUniverse()
}

// install stores s under name with a fresh memo beside it: the slot where
// the word index keeps the name's value order (valueorder.go). Whatever was
// derived from the set the name held before goes with that set.
func (in *Instance) install(name string, s region.Set) {
	in.regions[name] = s.WithMemo()
}

// DefineScoped installs a selectively indexed region name whose instance
// covers only occurrences inside `within` regions (Section 7 of the paper:
// "index only those that reside in some Authors region"). Query compilation
// uses the name only on paths passing through the scope.
func (in *Instance) DefineScoped(name, within string, s region.Set) {
	in.install(name, s)
	in.scopes[name] = within
	in.invalidateUniverse()
}

// Scope returns the scope of a selectively indexed name ("" for global or
// unindexed names).
func (in *Instance) Scope(name string) string { return in.scopes[name] }

// Drop removes a region name from the instance, e.g. to simulate a more
// partial indexing choice.
func (in *Instance) Drop(name string) {
	delete(in.regions, name)
	delete(in.scopes, name)
	in.invalidateUniverse()
}

func (in *Instance) invalidateUniverse() {
	in.uniMu.Lock()
	in.universe = nil
	in.uniMu.Unlock()
	in.epoch.Add(1)
}

// Epoch returns the instance's mutation counter. It increases on every
// Define, DefineScoped and Drop, and a spliced instance starts one past its
// parent, so equal epochs on one instance imply identical region contents.
func (in *Instance) Epoch() uint64 { return in.epoch.Load() }

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

// UniverseCtl returns the universe of all indexed regions, which only the
// direct-inclusion operators read: nothing builds it until the first ⊃d or
// ⊂d asks. That first caller builds it under uniMu, polling its check (nil
// for none), and it is kept until the instance changes. A build its check
// aborts stores nothing, so the next caller builds again. Concurrent first
// callers wait for the one building rather than build a copy each.
func (in *Instance) UniverseCtl(check region.Checker) (*region.Universe, error) {
	in.uniMu.Lock()
	defer in.uniMu.Unlock()
	if in.universe == nil {
		u, err := region.NewUniverse(in.sets(), check)
		if err != nil {
			return nil, err
		}
		in.universe = u
	}
	return in.universe, nil
}

// sets returns the named sets, in no particular order.
func (in *Instance) sets() []region.Set {
	sets := make([]region.Set, 0, len(in.regions))
	for _, s := range in.regions {
		sets = append(sets, s)
	}
	return sets
}

// Universe is UniverseCtl unpolled, for callers outside a query (rig's
// Definition 3.1 check, tests, the benchmark's kernel probe).
func (in *Instance) Universe() *region.Universe {
	u, _ := in.UniverseCtl(nil) // a nil checker cannot fail
	return u
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
// text itself and what queries derive lazily (universe, value orders,
// sistring array).
func (in *Instance) SizeBytes() int {
	return region.Bytes*in.RegionCount() + in.words.sizeBytes()
}

// Restrict returns a new instance over the same document keeping only the
// given region names (names that are not indexed are ignored). It models the
// paper's partial indexing: same document, fewer region indices.
func (in *Instance) Restrict(names ...string) *Instance {
	out := &Instance{
		words:   in.words,
		regions: make(map[string]region.Set, len(names)),
		scopes:  make(map[string]string),
	}
	for _, n := range names {
		if s, ok := in.regions[n]; ok {
			out.regions[n] = s
			if w, ok := in.scopes[n]; ok {
				out.scopes[n] = w
			}
		}
	}
	return out
}
