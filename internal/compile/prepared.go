package compile

import (
	"container/list"
	"sync"

	"qof/internal/faultinject"
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
// No file's bytes enter it; the step they steer (Plan.Ordered) is the
// execution's. It is safe for concurrent use.
type Prepared struct {
	Query *xsql.Query // what every plan here was compiled from

	cat   *Catalog
	mu    sync.Mutex        // held while compiling, so a plan is compiled once
	plans map[*Choice]*Plan // guarded by mu; a handful
}

// Plan returns the query's plan under the indexing choice, compiling it on
// first use; cached reports that it was there. The plan is shared: callers
// apply Ordered and modify nothing. An injected plancache.get fault degrades
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
// costs one lookup, on whichever file, shard or replica of the schema it runs.
func (c *Catalog) Prepare(src string) (*Prepared, error) {
	if p := c.prepared.get(src); p != nil {
		return p, nil
	}
	if onParse != nil {
		onParse()
	}
	q, err := xsql.Parse(src)
	if err != nil {
		return nil, err
	}
	return c.prepared.put(src, c.PrepareQuery(q)), nil
}

// PrepareQuery returns the prepared form of a parsed query, kept under its
// normalized text (Query.String): where every spelling Prepare sees leads.
func (c *Catalog) PrepareQuery(q *xsql.Query) *Prepared {
	if p := c.prepared.get(q.String()); p != nil {
		return p
	}
	return c.prepared.put(q.String(), &Prepared{Query: q, cat: c, plans: make(map[*Choice]*Plan, 1)})
}

// preparedCache is a bounded LRU from query text to prepared query. The text
// a client sent and the normalized text it parses to are two keys for one
// Prepared, so the common repeat — the same bytes again — parses nothing.
type preparedCache struct {
	mu  sync.Mutex
	cap int                      // immutable after construction
	ll  *list.List               // guarded by mu; of *preparedEntry, front = most recently used
	m   map[string]*list.Element // guarded by mu
}

type preparedEntry struct {
	text string
	p    *Prepared
}

func newPreparedCache(capacity int) *preparedCache {
	return &preparedCache{cap: capacity, ll: list.New(), m: make(map[string]*list.Element)}
}

// get returns what is kept under the text, most recently used from now on;
// an over-long text, or an injected plancache.get fault, is a miss.
func (pc *preparedCache) get(text string) *Prepared {
	if len(text) > maxRetainedSource || faultinject.Hit(faultinject.PlanCacheGet) != nil {
		return nil
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.m[text]
	if !ok {
		return nil
	}
	pc.ll.MoveToFront(el)
	return el.Value.(*preparedEntry).p
}

// put keeps p under the text and returns it — unless the text is kept
// already: what is there wins, so concurrent first sightings of a query share
// one Prepared. The least recently used text goes when the cache is full; an
// over-long text, or an injected plancache.put fault, keeps nothing.
func (pc *preparedCache) put(text string, p *Prepared) *Prepared {
	if len(text) > maxRetainedSource || faultinject.Hit(faultinject.PlanCachePut) != nil {
		return p
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.m[text]; ok {
		pc.ll.MoveToFront(el)
		return el.Value.(*preparedEntry).p
	}
	pc.m[text] = pc.ll.PushFront(&preparedEntry{text: text, p: p})
	if pc.ll.Len() > pc.cap {
		oldest := pc.ll.Back()
		pc.ll.Remove(oldest)
		delete(pc.m, oldest.Value.(*preparedEntry).text)
	}
	return p
}
