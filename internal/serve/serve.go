// Package serve implements qofd's serving layer: a stdlib-only, sharded,
// multi-tenant HTTP/JSON query daemon over the qof facade.
//
// A published corpus is indexed once, one engine per file, and placed by
// rendezvous hashing across N shards, every file on R replicas (Config.
// Replicas, default 2): each shard is a view over its files' engines, so a
// replica is a route, not a copy. A query is admitted (fair-share
// admission control with load shedding under saturation), scattered to
// every replica group under per-shard deadlines, and the per-group results
// are gathered back into global document order — so a sharded answer is
// byte-identical to the answer the direct facade gives over one corpus
// holding every file. A slow primary is hedged to the next replica after a
// delay derived from the live attempt-latency histogram; a faulted primary
// fails over; a replica that keeps failing wholesale trips its circuit
// breaker and is routed around until a half-open probe brings it back. Only
// when every replica of a group is exhausted does the group degrade to
// partial answers with shard and file attribution.
//
// Corpora are hot-reloaded with the swap-on-publish pattern the result
// cache already uses: Publish builds a new shard set off to the side, only
// indexing new or changed files, and atomically swaps it in under a bumped
// epoch; in-flight queries keep the set they started with. See
// docs/SERVING.md for the full contract.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qof"
	"qof/internal/faultinject"
	"qof/internal/pool"
	"qof/internal/qerr"
)

// Sentinel errors Execute returns; the HTTP layer maps them to statuses.
var (
	// ErrShed reports that admission control rejected the query because
	// the server (or the tenant's fair share) is saturated. HTTP: 429.
	ErrShed = errors.New("serve: saturated, query shed")
	// ErrNoCorpus reports that nothing has been published yet. HTTP: 503.
	ErrNoCorpus = errors.New("serve: no corpus published")
	// ErrBadQuery wraps an XSQL parse error in the request. HTTP: 400.
	ErrBadQuery = errors.New("serve: bad query")
)

// Limits are per-query resource budgets, mapped onto the facade's
// WithMaxRegions / WithMaxEvalBytes knobs. Zero means unlimited.
type Limits struct {
	MaxRegions   int
	MaxEvalBytes int
}

// Tenant configures one tenant's share of the server. The zero value means
// "defaults": the server-wide limits and a fair share of MaxInflight.
type Tenant struct {
	// Limits override the server-wide default budgets where nonzero.
	Limits Limits
	// Timeout overrides the server-wide default query deadline when > 0.
	Timeout time.Duration
	// MaxInflight is a hard cap on the tenant's concurrent queries. 0
	// means the dynamic fair share: MaxInflight / active tenants.
	MaxInflight int
}

// Config configures a Server. Schema is required; everything else has a
// serviceable default.
type Config struct {
	// Schema is the structuring schema every published file shares.
	Schema *qof.Schema
	// Shards is the number of engine shards documents are hashed across.
	// Values < 1 mean one shard.
	Shards int
	// Replicas is the number of shards routing to each file's one engine
	// (rendezvous hashing over the shards; see Placement). 0 means 2;
	// values are clamped to [1, Shards]. 1 disables replication, and with
	// it hedging and failover.
	Replicas int
	// HedgeAfter is how long the dispatcher waits for a primary replica
	// before hedging the attempt to the next one. 0 derives the delay
	// adaptively from the live per-attempt latency histogram (p99, clamped
	// to [1ms, 2s]); negative disables hedging. Fault-driven failover and
	// breaker routing work either way.
	HedgeAfter time.Duration
	// BreakerThreshold is the consecutive wholesale-failure count that
	// opens a replica's circuit breaker. Values < 1 mean 5.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects routing before
	// admitting a half-open probe. Values <= 0 mean 1s.
	BreakerCooldown time.Duration
	// Deprecated: Parallelism is ignored. Queries and publishes spread
	// their work over the process's GOMAXPROCS−1 helpers (package pool).
	Parallelism int

	// MaxInflight bounds the queries executing at once, server-wide;
	// admission beyond it sheds with ErrShed. Values < 1 mean 64.
	MaxInflight int
	// DefaultTimeout bounds each admitted query's wall time. Values <= 0
	// mean 10s. Tenants and requests may tighten it, never loosen it.
	DefaultTimeout time.Duration
	// ShardTimeout bounds each shard's scatter leg separately; a shard
	// exceeding it degrades to partial answers while the others complete.
	// 0 means no per-shard deadline beyond the query deadline.
	ShardTimeout time.Duration
	// FileTimeout bounds each file within a shard separately (the
	// facade's WithFileTimeout). 0 means no per-file deadline.
	FileTimeout time.Duration
	// DefaultLimits are the server-wide per-query budgets.
	DefaultLimits Limits
	// Tenants maps tenant names to their overrides. Unlisted tenants get
	// the defaults and a fair share.
	Tenants map[string]Tenant
	// RetryAfter is the backoff hint attached to shed responses. Values
	// <= 0 mean 1s.
	RetryAfter time.Duration

	// Reload, when set, enables POST /reload: it re-reads the corpus
	// sources and the server publishes the result as the next epoch.
	Reload func(context.Context) (map[string]string, error)
}

func (c *Config) shards() int {
	if c.Shards < 1 {
		return 1
	}
	return c.Shards
}

func (c *Config) replicas() int {
	r := c.Replicas
	if r == 0 {
		r = 2
	}
	if r < 1 {
		r = 1
	}
	if n := c.shards(); r > n {
		r = n
	}
	return r
}

func (c *Config) breakerThreshold() int {
	if c.BreakerThreshold < 1 {
		return 5
	}
	return c.BreakerThreshold
}

func (c *Config) breakerCooldown() time.Duration {
	if c.BreakerCooldown <= 0 {
		return time.Second
	}
	return c.BreakerCooldown
}

func (c *Config) maxInflight() int {
	if c.MaxInflight < 1 {
		return 64
	}
	return c.MaxInflight
}

func (c *Config) defaultTimeout() time.Duration {
	if c.DefaultTimeout <= 0 {
		return 10 * time.Second
	}
	return c.DefaultTimeout
}

func (c *Config) retryAfter() time.Duration {
	if c.RetryAfter <= 0 {
		return time.Second
	}
	return c.RetryAfter
}

// shardSet is one published corpus generation: an immutable snapshot the
// server swaps atomically on Publish. Queries load it once and use it for
// their whole execution, so a concurrent reload never mixes generations
// within one answer.
type shardSet struct {
	epoch   uint64
	all     *qof.Corpus   // every file's one engine
	shards  []*qof.Corpus // shard i's view over the engines of onShard[i]
	files   []string      // every published file name, sorted (global order)
	byShard [][]string    // files whose primary replica is shard i, sorted
	onShard [][]string    // files placed on shard i, primaries included, sorted
	groups  []group       // replica groups, in order of first file
}

// group is the dispatch unit of a scatter: the files sharing one ordered
// rendezvous placement. Every replica of a group views the group's files
// (among others), so any one replica can serve the whole group and the
// winner's statistics count each file exactly once.
type group struct {
	replicas []int    // ordered placement; replicas[0] is the primary
	files    []string // the group's files, sorted
}

// Server is the sharded multi-tenant query service. Create it with New,
// publish a corpus with Publish, then serve queries via Execute or the
// HTTP handler (Handler). All methods are safe for concurrent use.
type Server struct {
	cfg Config
	set atomic.Pointer[shardSet]
	adm *admission
	met *metrics

	// breakers holds one circuit breaker per engine shard. They outlive
	// publishes: a hot reload swaps corpora, not the engines' health
	// history.
	breakers []*breaker

	publishMu sync.Mutex // serializes Publish; queries never take it
}

// New creates a Server. It serves ErrNoCorpus until the first Publish.
func New(cfg Config) (*Server, error) {
	if cfg.Schema == nil {
		return nil, errors.New("serve: Config.Schema is required")
	}
	breakers := make([]*breaker, cfg.shards())
	for i := range breakers {
		breakers[i] = newBreaker(cfg.breakerThreshold(), cfg.breakerCooldown())
	}
	s := &Server{
		cfg:      cfg,
		adm:      newAdmission(cfg.maxInflight()),
		met:      newMetrics(),
		breakers: breakers,
	}
	// Generation 0 holds no file: every publish reindexes the one before it.
	s.set.Store(&shardSet{all: cfg.Schema.NewCorpus()})
	return s, nil
}

// Epoch reports the currently published corpus generation (0 before the
// first Publish).
func (s *Server) Epoch() uint64 {
	return s.set.Load().epoch
}

// Files reports the published file names in global document order.
func (s *Server) Files() []string {
	return append([]string(nil), s.set.Load().files...)
}

// Publish indexes files into a fresh shard set and swaps it in under the
// next epoch. See PublishContext.
func (s *Server) Publish(files map[string]string) (uint64, error) {
	return s.PublishContext(context.Background(), files)
}

// PublishContext builds the new generation completely before anything
// becomes visible: each new or changed file is indexed once (an unchanged
// one keeps its engine), then every shard takes its view (concurrently), and
// only if all of it succeeds does the swap happen — a failed publish leaves
// the previous generation serving untouched. Every failure is reported, not
// just the first: one attributed error per failed file or shard.
func (s *Server) PublishContext(ctx context.Context, files map[string]string) (uint64, error) {
	epoch, _, err := s.publish(ctx, files)
	return epoch, err
}

// publish is PublishContext, also reporting how many files it indexed.
func (s *Server) publish(ctx context.Context, files map[string]string) (uint64, int, error) {
	s.publishMu.Lock()
	defer s.publishMu.Unlock()

	n := s.cfg.shards()
	r := s.cfg.replicas()
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	byShard := make([][]string, n)
	onShard := make([][]string, n)
	// Group files by their full ordered placement: every replica of a file
	// routes to its one engine, and files sharing a placement form one
	// dispatch group (names are sorted, so group membership and order are
	// deterministic).
	var groups []group
	groupAt := make(map[string]int)
	for _, name := range names {
		pl := Placement(name, n, r)
		byShard[pl[0]] = append(byShard[pl[0]], name)
		for _, sh := range pl {
			onShard[sh] = append(onShard[sh], name)
		}
		key := fmt.Sprint(pl)
		gi, ok := groupAt[key]
		if !ok {
			gi = len(groups)
			groupAt[key] = gi
			groups = append(groups, group{replicas: pl})
		}
		groups[gi].files = append(groups[gi].files, name)
	}

	old := s.set.Load()
	all, built, err := old.all.Reindex(ctx, files)
	if err != nil {
		return old.epoch, built, fmt.Errorf("serve: %w", err)
	}
	shards := make([]*qof.Corpus, n)
	errs := pool.Each(n, func(i int) error {
		if err := faultinject.Hit(faultinject.ServePublish); err != nil {
			return err
		}
		shards[i] = all.Subset(onShard[i]...)
		return nil
	})
	for i := range errs {
		if errs[i] != nil {
			errs[i] = fmt.Errorf("serve: shard %d: %w", i, errs[i])
		}
	}
	if err := errors.Join(errs...); err != nil {
		return old.epoch, built, err
	}

	s.set.Store(&shardSet{epoch: old.epoch + 1, all: all, shards: shards, files: names, byShard: byShard, onShard: onShard, groups: groups})
	return old.epoch + 1, built, nil
}

// Request is one query submission.
type Request struct {
	// Query is the XSQL source.
	Query string
	// Tenant names the submitting tenant; empty means "anonymous".
	Tenant string
	// Timeout tightens the effective query deadline when > 0 (it can
	// never loosen the tenant's or server's deadline).
	Timeout time.Duration
	// MaxRegions / MaxEvalBytes tighten the effective budgets when > 0.
	MaxRegions   int
	MaxEvalBytes int
}

// ShardFileError attributes one file's failure to the shard that served it.
type ShardFileError struct {
	File  string
	Shard int
	Err   error
}

// Response is a query outcome. Hits and Degraded are in global document
// order, so the same corpus answers identically no matter how it is
// sharded.
type Response struct {
	// Epoch is the corpus generation that served the query.
	Epoch uint64
	// Shards is the serving shard count.
	Shards int
	// Files is the number of published files.
	Files int
	// Hits lists the files with at least one result.
	Hits []qof.CorpusHit
	// Degraded lists per-file failures (shard faults, per-file or
	// per-shard deadlines, budget violations) the rest of the answer
	// survived. Empty means the answer is complete.
	Degraded []ShardFileError
	// Stats aggregates execution statistics over the succeeded files.
	Stats qof.CorpusStats
	// Elapsed is the server-side execution wall time.
	Elapsed time.Duration
}

// Complete reports whether every published file contributed.
func (r *Response) Complete() bool { return len(r.Degraded) == 0 }

// DegradedError joins the per-file failures with shard and file
// attribution, or returns nil when the response is complete. errors.Is
// matches each underlying cause.
func (r *Response) DegradedError() error {
	if len(r.Degraded) == 0 {
		return nil
	}
	errs := make([]error, len(r.Degraded))
	for i, d := range r.Degraded {
		errs[i] = fmt.Errorf("serve: shard %d: %s: %w", d.Shard, d.File, d.Err)
	}
	return errors.Join(errs...)
}

// tenant resolves the effective configuration for a tenant name.
func (s *Server) tenant(name string) Tenant {
	t := s.cfg.Tenants[name]
	if t.Limits.MaxRegions == 0 {
		t.Limits.MaxRegions = s.cfg.DefaultLimits.MaxRegions
	}
	if t.Limits.MaxEvalBytes == 0 {
		t.Limits.MaxEvalBytes = s.cfg.DefaultLimits.MaxEvalBytes
	}
	if t.Timeout <= 0 {
		t.Timeout = s.cfg.defaultTimeout()
	}
	return t
}

// tighten returns the stricter of a cap and a requested value; zero means
// "no opinion" on either side.
func tighten(cap, req int) int {
	if req <= 0 {
		return cap
	}
	if cap <= 0 || req < cap {
		return req
	}
	return cap
}

// Execute admits, scatters and gathers one query. It returns ErrShed,
// ErrNoCorpus or an error wrapping ErrBadQuery without touching the
// shards; otherwise the response carries whatever completed, and the
// error is only non-nil when the query-level context ended (the caller
// learns the answer was cut short, with the partial answer attached).
func (s *Server) Execute(ctx context.Context, req Request) (*Response, error) {
	set := s.set.Load()
	if set.epoch == 0 {
		return nil, ErrNoCorpus
	}
	// Validating prepares: every group below finds the query parsed.
	if err := s.cfg.Schema.Prepare(req.Query); err != nil {
		s.met.badQuery.Add(1)
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	ten := s.tenant(req.Tenant)
	s.met.tenant(req.Tenant).queries.Add(1)
	release, ok := s.adm.acquire(req.Tenant, ten.MaxInflight)
	if !ok {
		s.met.shed.Add(1)
		s.met.tenant(req.Tenant).shed.Add(1)
		return nil, ErrShed
	}
	defer release()
	// An admitted query runs on this goroutine to the end, so a burst would
	// queue in the scheduler, unseen by admission. Yielding once lets every
	// request that already arrived reach admission and be counted or shed.
	runtime.Gosched()
	s.met.queries.Add(1)
	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)
	start := time.Now()
	defer func() { s.met.hist.observe(time.Since(start)) }()

	timeout := ten.Timeout
	if req.Timeout > 0 && req.Timeout < timeout {
		timeout = req.Timeout
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	opts := []qof.QueryOption{qof.WithPartialResults()}
	if n := tighten(ten.Limits.MaxRegions, req.MaxRegions); n > 0 {
		opts = append(opts, qof.WithMaxRegions(n))
	}
	if n := tighten(ten.Limits.MaxEvalBytes, req.MaxEvalBytes); n > 0 {
		opts = append(opts, qof.WithMaxEvalBytes(n))
	}
	if s.cfg.FileTimeout > 0 {
		opts = append(opts, qof.WithFileTimeout(s.cfg.FileTimeout))
	}

	// Scatter: every group is routed and armed now, then pulled by this
	// goroutine and idle helpers; each hedges, fails over and fails open
	// among its replicas, and each attempt is panic-isolated and
	// deadline-bounded, so one bad replica degrades nothing.
	hedge, tc, armed := s.hedgeDelay(), s.met.tenant(req.Tenant), time.Now()
	ds := make([]*dispatch, len(set.groups))
	for gi, g := range set.groups {
		ds[gi] = s.dispatchGroup(ctx, set, g, tc, req.Query, opts, hedge)
	}
	if hedge > 0 && time.Since(armed) >= hedge {
		runtime.Gosched() // the hedges are due already: let them start before the primaries
	}
	outs := make([]*qof.CorpusResults, len(ds))
	errs := pool.Each(len(ds), func(gi int) (err error) {
		outs[gi], err = ds[gi].run()
		return err
	})

	// Gather: merge per-group hits and failures back into global document
	// order. A group whose every routed replica failed wholesale (injected
	// faults, panics, a deadline before any file ran) degrades every file
	// it owned; degradations are always attributed to the file's primary
	// shard, so the answer bytes do not depend on which replica served.
	resp := &Response{Epoch: set.epoch, Shards: len(set.shards), Files: len(set.files)}
	hits := make(map[string]qof.CorpusHit)
	degraded := make(map[string]ShardFileError)
	var interrupted error
	for gi, o := range outs {
		g := set.groups[gi]
		if o == nil {
			for _, f := range g.files {
				degraded[f] = ShardFileError{File: f, Shard: g.replicas[0], Err: errs[gi]}
			}
			continue
		}
		for _, h := range o.Hits {
			hits[h.File] = h
		}
		for _, fe := range o.Degraded {
			degraded[fe.File] = ShardFileError{File: fe.File, Shard: g.replicas[0], Err: fe.Err}
		}
		resp.Stats.Results += o.Stats.Results
		resp.Stats.Candidates += o.Stats.Candidates
		resp.Stats.Parsed += o.Stats.Parsed
		resp.Stats.ParsedBytes += o.Stats.ParsedBytes
		resp.Stats.Exact = resp.Stats.Exact || o.Stats.Exact
		resp.Stats.FullScan = resp.Stats.FullScan || o.Stats.FullScan
	}
	// Partial mode returns an error alongside results when the context it
	// ran under ended. A shard-local deadline is already reflected in that
	// shard's per-file degradation; only the query-level context ending
	// makes the whole call report interruption.
	if err := ctx.Err(); err != nil {
		interrupted = err
	}
	for _, f := range set.files {
		if h, ok := hits[f]; ok {
			resp.Hits = append(resp.Hits, h)
		}
		if d, ok := degraded[f]; ok {
			resp.Degraded = append(resp.Degraded, d)
		}
	}
	resp.Elapsed = time.Since(start)
	if len(resp.Degraded) > 0 {
		s.met.degraded.Add(1)
	}
	if interrupted != nil {
		if errors.Is(interrupted, context.Canceled) {
			s.met.canceled.Add(1)
		}
		return resp, interrupted
	}
	s.met.ok.Add(1)
	return resp, nil
}

// hedgeDelay resolves the configured hedge policy to a concrete delay, once
// per query; 0 means hedging is off.
func (s *Server) hedgeDelay() time.Duration {
	if s.cfg.HedgeAfter < 0 {
		return 0
	}
	if s.cfg.HedgeAfter > 0 {
		return s.cfg.HedgeAfter
	}
	// Adaptive: hedge past the p99 of recent per-attempt latencies, so at
	// most ~1% of attempts hedge once the histogram has signal. Before it
	// does, a generous fixed delay avoids hedging warm-up noise.
	if s.met.legHist.count() < 50 {
		return 25 * time.Millisecond
	}
	d := time.Duration(s.met.legHist.quantile(0.99) * float64(time.Millisecond))
	return min(max(d, time.Millisecond), 2*time.Second)
}

// dispatch is one group's race between the attempts run by the goroutine
// that gets to the group and those its hedge timer starts, which share the
// placement walk and the outcome under mu.
type dispatch struct {
	s         *Server
	set       *shardSet
	g         group
	tc        *tenantCounters
	ctx, ictx context.Context // the query's, and the dispatcher's attempts'
	query     string
	opts      []qof.QueryOption
	sh        int    // the primary attempt's replica
	point     string // and its failpoint
	timer     *time.Timer
	hedged    chan struct{} // closed when the timer's attempts are over

	mu      sync.Mutex
	next    int                // the placement walk's position
	res     *qof.CorpusResults // the winning attempt's
	err     error              // the last wholesale failure
	over    bool               // the dispatcher returned: the timer starts nothing more
	inline  context.CancelFunc // cancels the dispatcher's attempts
	hcancel context.CancelFunc // cancels the timer goroutine's attempt
}

// dispatchGroup routes a group's primary attempt (around open breakers,
// failing open to the primary when every breaker is open) and, when hedging
// is on and the group has a second replica, arms its hedge timer — when the
// query starts, so a group queued behind a stalled one is hedged on time.
func (s *Server) dispatchGroup(ctx context.Context, set *shardSet, g group, tc *tenantCounters, query string, opts []qof.QueryOption, hedge time.Duration) *dispatch {
	d := &dispatch{s: s, set: set, g: g, tc: tc, ctx: ctx, query: query, hcancel: func() {}}
	d.opts = append(append(make([]qof.QueryOption, 0, len(opts)+1), opts...), qof.WithFiles(g.files...))
	d.ictx, d.inline = context.WithCancel(ctx)
	d.point = faultinject.ServeShard
	var routed bool
	if d.sh, routed = d.pick(d.point, nil); !routed {
		// Every replica's breaker is open: fail open to the primary rather
		// than refuse the group — an answer attempt beats certain
		// degradation, and its outcome feeds the breaker.
		d.sh = g.replicas[0]
		s.met.failedOpen.Add(1)
	} else if d.sh != g.replicas[0] {
		d.point = faultinject.ServeReplica
	}
	if hedge > 0 && len(g.replicas) > 1 {
		d.hedged = make(chan struct{})
		d.timer = time.AfterFunc(hedge, func() {
			defer close(d.hedged)
			d.race()
		})
	}
	return d
}

// run finishes the group on the calling goroutine: the primary attempt
// runs here, and so does a failover after an attempt here fails wholesale. The hedge timer's goroutine, the
// only one a query may start, runs a hedged attempt on the next replica and
// fails over from it in turn. The first attempt to answer wins and every
// other attempt's context is canceled at once, so a winning hedge ends the
// stalled attempt here; only when every routed replica failed does the
// group report an error, the last failure.
func (d *dispatch) run() (*qof.CorpusResults, error) {
	// A primary that a hedge beat to it runs canceled and ends at once.
	sh, point, routed := d.sh, d.point, true
	for routed && !d.offer(d.s.attempt(d.ictx, d.ctx, d.set, sh, point, d.query, d.opts)) {
		point = faultinject.ServeReplica
		sh, routed = d.pick(point, nil)
	}
	if d.timer != nil && !d.timer.Stop() && !d.answered() {
		<-d.hedged // every replica is tried: only the timer's attempts can still answer
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.over = true // a timer that fires from here on starts nothing
	d.inline()
	d.hcancel()
	if d.res == nil && d.err == nil {
		d.err = errors.New("serve: no replica answered")
	}
	return d.res, d.err
}

// answered reports whether an attempt has won.
func (d *dispatch) answered() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.res != nil
}

// race runs the timer goroutine's attempts: a hedge, then failovers from
// it, until an attempt wins, the dispatcher returns or no replica is left.
func (d *dispatch) race() {
	for point := faultinject.ServeHedge; ; point = faultinject.ServeReplica {
		hctx, cancel := context.WithCancel(d.ctx)
		sh, ok := d.pick(point, cancel)
		won := ok && d.offer(d.s.attempt(hctx, d.ctx, d.set, sh, point, d.query, d.opts))
		cancel()
		if won || !ok {
			return
		}
	}
}

// pick walks the placement order for an attempt at point, skipping
// replicas whose breaker rejects routing (an open breaker admits one probe
// per cooldown), and counts the attempt it routes; a timer attempt's cancel
// becomes hcancel. Once an attempt has won or the dispatcher has returned
// it routes nothing.
func (d *dispatch) pick(point string, cancel context.CancelFunc) (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.res == nil && !d.over && d.next < len(d.g.replicas) {
		sh := d.g.replicas[d.next]
		d.next++
		if !d.s.breakers[sh].admit(d.s.met) {
			continue
		}
		switch {
		case point == faultinject.ServeHedge:
			d.s.met.hedgesSent.Add(1)
			d.tc.hedges.Add(1)
		case point == faultinject.ServeReplica || sh != d.g.replicas[0]:
			d.s.met.failovers.Add(1)
			d.tc.failovers.Add(1)
		}
		if cancel != nil {
			d.hcancel = cancel
		}
		return sh, true
	}
	return 0, false
}

// offer settles one attempt's outcome and reports whether the group has
// its answer. The first result wins and cancels every other attempt; a
// wholesale failure only records its error.
func (d *dispatch) offer(res *qof.CorpusResults, hedge bool, err error) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case d.res != nil:
	case res != nil:
		d.res = res
		if hedge {
			d.s.met.hedgesWon.Add(1)
		}
		d.inline()
		d.hcancel()
	case err != nil:
		d.err = err
	}
	return d.res != nil
}

// attempt runs one replica attempt at the failpoint point and returns its
// outcome: a nil result exactly when the attempt failed wholesale (injected
// fault, panic); in partial mode a completed attempt always carries a
// result, even when some of its files degraded or the query context ended
// mid-flight. It is panic-isolated, observes its own latency into the
// histogram driving the adaptive hedge delay, and feeds the replica's
// breaker — a completed result (even a partially degraded one) is a
// success; a wholesale failure counts against the replica unless its
// attempt was canceled or the query's own context ended.
func (s *Server) attempt(actx, qctx context.Context, set *shardSet, shard int, point string, query string, opts []qof.QueryOption) (res *qof.CorpusResults, hedge bool, err error) {
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("panic: %v: %w", p, qerr.ErrInternal)
		}
		s.met.legHist.observe(time.Since(start))
		s.recordAttempt(shard, res != nil, actx, qctx)
	}()
	hedge = point == faultinject.ServeHedge
	if err := faultinject.HitN(actx, point, shard); err != nil {
		return nil, hedge, err
	}
	sctx := actx
	if s.cfg.ShardTimeout > 0 {
		var cancel context.CancelFunc
		sctx, cancel = context.WithTimeout(actx, s.cfg.ShardTimeout)
		defer cancel()
	}
	res, err = set.shards[shard].ExecuteContext(sctx, query, opts...)
	return res, hedge, err
}

// recordAttempt feeds one attempt outcome to the shard's breaker. A
// canceled loser and a query whose own context ended say nothing about the
// replica's health, so they count neither way.
func (s *Server) recordAttempt(shard int, ok bool, actx, qctx context.Context) {
	b := s.breakers[shard]
	if ok {
		b.success(s.met)
		return
	}
	if qctx.Err() != nil || actx.Err() != nil {
		b.abandon()
		return
	}
	b.failure(s.met)
}
