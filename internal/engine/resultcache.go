package engine

import (
	"container/list"
	"sync"

	"qof/internal/faultinject"
	"qof/internal/region"
)

// resultCacheCap bounds the per-engine cross-query result cache. Entries
// are whole region sets, so the cap is larger than the plan cache's (more
// distinct subexpressions than query texts) but still small enough that a
// burst of one-off queries cannot pin unbounded memory.
const resultCacheCap = 256

// ResultCache is a bounded LRU cache of evaluated region sets keyed by
// canonical expression string. It belongs to one engine, hence to one
// instance, which never changes, so an entry never goes stale: an edit makes
// a new instance, and the new instance gets a new engine. It is the
// cross-query sibling of compile.PlanCache: the plan cache skips parsing
// and optimization for repeated query texts, this cache skips phase-1 index
// evaluation for repeated subexpressions, including ones shared between
// different queries.
//
// Beside the sets it keeps a doorkeeper, the admission filter of TinyLFU
// (Einziger, Friedman & Manes): the keys whose candidate stream a LIMIT
// stopped, so published nothing. A recorded key's next miss builds the whole
// set, which publishes, so a query repeated under a LIMIT streams once and is
// a cache hit from its third run on, while a one-off LIMIT query never pays
// for more than its stream. The doorkeeper holds at most cap keys and is
// cleared whole when full.
//
// Region sets are immutable, so a cached set is shared by any number of
// concurrent executions; the cache itself is safe for concurrent use. It
// implements algebra.ResultCache.
type ResultCache struct {
	mu   sync.Mutex
	cap  int                      // immutable after construction
	ll   *list.List               // guarded by mu; front = most recently used
	m    map[string]*list.Element // guarded by mu
	seen map[string]struct{}      // guarded by mu; the doorkeeper

	hits, misses int // guarded by mu
}

type resultEntry struct {
	key string
	set region.Set
}

// NewResultCache creates a cache holding at most capacity result sets;
// capacity < 1 is treated as 1.
func NewResultCache(capacity int) *ResultCache {
	if capacity < 1 {
		capacity = 1
	}
	return &ResultCache{cap: capacity, ll: list.New(), m: make(map[string]*list.Element), seen: make(map[string]struct{})}
}

// Get returns the cached set for the key, marking it most recently used.
// An injected resultcache.get fault degrades to a miss: the cache is an
// accelerator, so losing it must never fail a query.
func (rc *ResultCache) Get(key string) (region.Set, bool) {
	if err := faultinject.Hit(faultinject.ResultCacheGet); err != nil {
		return region.Empty, false
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	el, ok := rc.m[key]
	if !ok {
		rc.misses++
		return region.Empty, false
	}
	rc.hits++
	rc.ll.MoveToFront(el)
	return el.Value.(*resultEntry).set, true
}

// Put inserts (or refreshes) the set under the key, evicting the least
// recently used entry when the cache is full. An injected resultcache.put
// fault drops the entry — an incomplete or torn set is never published.
func (rc *ResultCache) Put(key string, s region.Set) {
	if err := faultinject.Hit(faultinject.ResultCachePut); err != nil {
		return
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if el, ok := rc.m[key]; ok {
		el.Value.(*resultEntry).set = s
		rc.ll.MoveToFront(el)
		return
	}
	rc.m[key] = rc.ll.PushFront(&resultEntry{key: key, set: s})
	for rc.ll.Len() > rc.cap {
		oldest := rc.ll.Back()
		rc.ll.Remove(oldest)
		delete(rc.m, oldest.Value.(*resultEntry).key)
	}
}

// Record admits the key to the doorkeeper: a LIMIT stopped its stream, so
// its set is still unpublished. A full doorkeeper is cleared first.
func (rc *ResultCache) Record(key string) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if _, ok := rc.seen[key]; ok {
		return
	}
	if len(rc.seen) >= rc.cap {
		clear(rc.seen)
	}
	rc.seen[key] = struct{}{}
}

// Recorded reports whether the doorkeeper holds the key: its next miss is
// worth building the whole set for.
func (rc *ResultCache) Recorded(key string) bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	_, ok := rc.seen[key]
	return ok
}

// Len reports the number of cached sets.
func (rc *ResultCache) Len() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.ll.Len()
}

// Counters reports cumulative hit and miss counts, for throughput reports.
func (rc *ResultCache) Counters() (hits, misses int) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.hits, rc.misses
}
