package engine

import (
	"qof/internal/faultinject"
	"qof/internal/lru"
	"qof/internal/region"
)

// CachedSets reports how many sets e's result cache holds.
func CachedSets(e *Engine) int { return e.results.Len() }

// ForgetResults empties e's result cache and its doorkeeper, so the next
// query on e is a first miss.
func ForgetResults(e *Engine) {
	e.results = lru.New[string, region.Set](resultCacheCap, faultinject.ResultCacheGet, faultinject.ResultCachePut)
	e.door = lru.New[string, struct{}](resultCacheCap, "", "")
	e.ev.Results = e.results
}
