package compile

import (
	"sync"

	"qof/internal/faultinject"
	"qof/internal/lru"
	"qof/internal/xsql"
)

// planCacheCap bounds the query texts a catalog keeps prepared. It buys
// sharing, not size: a plan is compiled and held once for every file.
const planCacheCap = 64

// maxRetainedSource is the longest query text the cache keeps; a longer one
// is prepared afresh each time. So the cache retains at most planCacheCap
// texts this long and their plans, whatever clients send.
const maxRetainedSource = 4 << 10

// Test hooks (export_test.go): called per source text parsed, per plan compiled.
var onParse, onCompile func()

// Prepared is a query made ready to run on every file of the schema: parsed
// and normalized once, compiled once per indexing choice it has run under.
// No file's bytes enter it: every file under one choice runs the same plan.
// It is safe for concurrent use.
type Prepared struct {
	Query *xsql.Query // what every plan here was compiled from

	cat   *Catalog
	mu    sync.Mutex        // held while compiling, so a plan is compiled once
	plans map[*Choice]*Plan // guarded by mu; a handful
}

// Plan returns the query's plan under the indexing choice, compiling it on
// first use; cached reports that it was there. The plan is shared: callers
// run it as it is and modify nothing. An injected plancache.get fault degrades
// to a recompile, a plancache.put fault to a plan that is not kept.
func (p *Prepared) Plan(ch *Choice) (plan *Plan, cached bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if plan, cached = p.plans[ch]; cached && faultinject.Hit(faultinject.PlanCacheGet) == nil {
		return plan, true, nil
	}
	if plan, err = p.cat.compile(p.Query, ch); err != nil {
		return nil, false, err
	}
	if faultinject.Hit(faultinject.PlanCachePut) == nil {
		if len(p.plans) == maxChoices { // as many as the catalog tells apart
			clear(p.plans)
		}
		p.plans[ch] = plan
	}
	return plan, false, nil
}

// Prepare returns the prepared form of the query text. A text seen lately
// costs one lookup, on whichever file of the schema it runs.
func (c *Catalog) Prepare(src string) (*Prepared, error) {
	if p, ok := c.cached(src); ok {
		return p, nil
	}
	if onParse != nil {
		onParse()
	}
	q, err := xsql.Parse(src)
	if err != nil {
		return nil, err
	}
	return c.keep(src, c.PrepareQuery(q)), nil
}

// PrepareQuery returns the prepared form of a parsed query, kept under its
// normalized text (Query.String): where every spelling Prepare sees leads.
func (c *Catalog) PrepareQuery(q *xsql.Query) *Prepared {
	norm := q.String()
	if p, ok := c.cached(norm); ok {
		return p
	}
	return c.keep(norm, &Prepared{Query: q, cat: c, plans: make(map[*Choice]*Plan, 1)})
}

// newPreparedCache is a catalog's LRU from query text to prepared query. The
// text a client sent and the normalized text it parses to are two keys for
// one Prepared, so the common repeat — the same bytes again — parses nothing.
func newPreparedCache() *lru.Cache[string, *Prepared] {
	return lru.New[string, *Prepared](planCacheCap, faultinject.PlanCacheGet, faultinject.PlanCachePut)
}

// cached returns the Prepared kept under the text; an over-long one is never
// kept.
func (c *Catalog) cached(text string) (*Prepared, bool) {
	if len(text) > maxRetainedSource {
		return nil, false
	}
	return c.prepared.Get(text)
}

// keep keeps p under the text, unless the text is over-long, and returns
// what is kept there.
func (c *Catalog) keep(text string, p *Prepared) *Prepared {
	if len(text) > maxRetainedSource {
		return p
	}
	return c.prepared.Add(text, p)
}
