package compile

import (
	"sync/atomic"
	"testing"
)

// PlanCacheCap and MaxRetainedSource export the cache's bounds.
const (
	PlanCacheCap      = planCacheCap
	MaxRetainedSource = maxRetainedSource
)

// CountPreparation counts, until the test ends, the source texts Prepare
// parses and the plans compiled, anywhere in the process: the product keeps
// no such counters, so the tests count through the hooks.
func CountPreparation(t testing.TB) (parses, compiles *atomic.Int64) {
	parses, compiles = new(atomic.Int64), new(atomic.Int64)
	onParse = func() { parses.Add(1) }
	onCompile = func() { compiles.Add(1) }
	t.Cleanup(func() { onParse, onCompile = nil, nil })
	return parses, compiles
}

// PreparedLen reports how many query texts the catalog keeps prepared.
func (c *Catalog) PreparedLen() int { return c.prepared.Len() }
