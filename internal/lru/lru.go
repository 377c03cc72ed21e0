// Package lru is the bounded least-recently-used cache behind every cache of
// the engine: the catalog's prepared query texts, an engine's evaluated
// region sets and the doorkeeper beside them.
package lru

import (
	"container/list"
	"sync"

	"qof/internal/faultinject"
)

// Cache maps at most a fixed number of keys to values; an Add past that
// forgets the least recently used key. It is safe for concurrent use.
type Cache[K comparable, V any] struct {
	getFault, addFault string // failpoints: a forced miss, a dropped add; immutable
	cap                int    // immutable after construction

	mu sync.Mutex
	ll *list.List          // guarded by mu; of *entry[K, V], front = most recently used
	m  map[K]*list.Element // guarded by mu
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty cache of at most capacity keys; capacity < 1 is 1.
// getFault and addFault name the failpoints (package faultinject) that turn
// a Get into a miss and make an Add keep nothing; an empty name is none.
func New[K comparable, V any](capacity int, getFault, addFault string) *Cache[K, V] {
	return &Cache[K, V]{getFault: getFault, addFault: addFault, cap: max(capacity, 1), ll: list.New(), m: make(map[K]*list.Element)}
}

// Get returns the value kept under key, which is most recently used from
// now on.
func (c *Cache[K, V]) Get(key K) (v V, ok bool) {
	if faultinject.Hit(c.getFault) != nil {
		return v, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return v, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Add keeps v under key and returns it, unless key is kept already: then
// what is kept stays and is returned, so concurrent first sightings of a key
// share one value. Either way key is most recently used from now on. A full
// cache forgets its least recently used key.
func (c *Cache[K, V]) Add(key K, v V) V {
	if faultinject.Hit(c.addFault) != nil {
		return v
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry[K, V]).val
	}
	c.m[key] = c.ll.PushFront(&entry[K, V]{key: key, val: v})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*entry[K, V]).key)
	}
	return v
}

// Len reports how many keys the cache holds.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
