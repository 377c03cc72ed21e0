package engine

// CachedSets reports how many sets e's result cache holds.
func CachedSets(e *Engine) int { return e.results.Len() }

// ForgetResults empties e's result cache and its doorkeeper, so the next
// query on e is a first miss.
func ForgetResults(e *Engine) {
	rc := e.results
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.ll.Init()
	clear(rc.m)
	clear(rc.seen)
}
