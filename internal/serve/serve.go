// Package serve implements qofd's serving layer: a stdlib-only,
// multi-tenant HTTP/JSON query daemon over the qof facade.
//
// A published generation is one qof.Corpus: every file indexed once, one
// engine per file, as the paper's one indexed file set behind one query
// processor. A query is admitted (fair-share admission control with load
// shedding under saturation), then runs as one Corpus.ExecuteContext in
// partial mode under the tenant's budgets and deadline: a file that fails,
// panics or misses its per-file deadline degrades to an attributed failure
// while the rest of the answer survives. So the daemon's answer is
// byte-identical to the one the direct facade gives over the same files.
//
// Corpora are hot-reloaded with the swap-on-publish pattern the result
// cache already uses: Publish builds the next generation off to the side
// through Corpus.Reindex, indexing only new or changed files, and
// atomically swaps it in under a bumped epoch; in-flight queries keep the
// generation they started with. See docs/SERVING.md for the full contract.
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
	"qof/internal/qerr"
)

// Sentinel errors Execute returns; the HTTP layer maps them to statuses.
var (
	// ErrShed reports that admission control rejected the query because
	// the server (or the tenant's fair share) is saturated. HTTP: 429.
	ErrShed = errors.New("serve: saturated, query shed")
	// ErrNoCorpus reports that nothing has been published yet. HTTP: 503.
	ErrNoCorpus = errors.New("serve: no corpus published")
	// ErrBadQuery wraps what is wrong with the request: an XSQL parse
	// error, or a tenant name over 256 bytes. HTTP: 400.
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
	// Deprecated: Shards, Replicas, BreakerThreshold, BreakerCooldown and
	// Parallelism are ignored. The server holds one corpus and runs every
	// query through it, spreading its files over the process's
	// GOMAXPROCS−1 helpers (package pool). The fields stay only because
	// the benchmark's child configuration (bench/trace.go) still sets
	// them, until ROADMAP.md's item "thaw the benchmark" (item 1) moves
	// it off them.
	Shards, Replicas, BreakerThreshold, Parallelism int
	// Deprecated: ignored; see Shards.
	BreakerCooldown time.Duration

	// MaxInflight bounds the queries executing at once, server-wide;
	// admission beyond it sheds with ErrShed. Values < 1 mean 64.
	MaxInflight int
	// DefaultTimeout bounds each admitted query's wall time. Values <= 0
	// mean 10s. Tenants and requests may tighten it, never loosen it.
	DefaultTimeout time.Duration
	// FileTimeout bounds each file separately (the facade's
	// WithFileTimeout): a file exceeding it degrades while the others
	// complete. 0 means no per-file deadline beyond the query deadline.
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

// generation is one published corpus: an immutable snapshot the server
// swaps atomically on Publish. Queries load it once and use it for their
// whole execution, so a concurrent reload never mixes generations within
// one answer.
type generation struct {
	epoch  uint64
	corpus *qof.Corpus
	files  []string // every published file name, sorted (the corpus's order)
}

// Server is the multi-tenant query service. Create it with New, publish a
// corpus with Publish, then serve queries via Execute or the HTTP handler
// (Handler). All methods are safe for concurrent use.
type Server struct {
	cfg Config
	gen atomic.Pointer[generation]
	adm *admission
	met *metrics

	publishMu sync.Mutex // serializes Publish; queries never take it
}

// New creates a Server. It serves ErrNoCorpus until the first Publish.
func New(cfg Config) (*Server, error) {
	if cfg.Schema == nil {
		return nil, errors.New("serve: Config.Schema is required")
	}
	s := &Server{
		cfg: cfg,
		adm: newAdmission(cfg.maxInflight()),
		met: newMetrics(),
	}
	// Generation 0 holds no file: every publish reindexes the one before it.
	s.gen.Store(&generation{corpus: cfg.Schema.NewCorpus()})
	return s, nil
}

// Epoch reports the currently published corpus generation (0 before the
// first Publish).
func (s *Server) Epoch() uint64 {
	return s.gen.Load().epoch
}

// Files reports the published file names in document order.
func (s *Server) Files() []string {
	return append([]string(nil), s.gen.Load().files...)
}

// Publish indexes files into the next generation and swaps it in under the
// next epoch. See PublishContext.
func (s *Server) Publish(files map[string]string) (uint64, error) {
	return s.PublishContext(context.Background(), files)
}

// PublishContext builds the new generation completely before anything
// becomes visible: each new or changed file is indexed once, an unchanged
// one keeps its engine, and only if all of it succeeds does the swap happen
// — a failed publish leaves the previous generation serving untouched.
// Every failure is reported, not just the first: one attributed error per
// failed file.
func (s *Server) PublishContext(ctx context.Context, files map[string]string) (uint64, error) {
	epoch, _, err := s.publish(ctx, files)
	return epoch, err
}

// publish is PublishContext, also reporting how many files it indexed. A
// panic after the build is isolated to this publish's error.
func (s *Server) publish(ctx context.Context, files map[string]string) (epoch uint64, built int, err error) {
	s.publishMu.Lock()
	defer s.publishMu.Unlock()
	old := s.gen.Load()
	defer func() {
		if p := recover(); p != nil {
			epoch, err = old.epoch, fmt.Errorf("serve: publish: panic: %v: %w", p, qerr.ErrInternal)
		}
	}()
	corpus, built, err := old.corpus.Reindex(ctx, files)
	if err == nil {
		err = faultinject.Hit(faultinject.ServePublish)
	}
	if err != nil {
		return old.epoch, built, fmt.Errorf("serve: %w", err)
	}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	s.gen.Store(&generation{epoch: old.epoch + 1, corpus: corpus, files: names})
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

// Response is a query outcome. Hits and Degraded are in document order,
// as the direct facade reports them over the same files.
type Response struct {
	// Epoch is the corpus generation that served the query.
	Epoch uint64
	// Files is the number of published files.
	Files int
	// Hits lists the files with at least one result.
	Hits []qof.CorpusHit
	// Degraded lists per-file failures (faults, per-file deadlines, budget
	// violations) the rest of the answer survived. Empty means the answer
	// is complete.
	Degraded []qof.FileError
	// Stats aggregates execution statistics over the succeeded files.
	Stats qof.CorpusStats
	// Elapsed is the server-side execution wall time.
	Elapsed time.Duration
}

// Complete reports whether every published file contributed.
func (r *Response) Complete() bool { return len(r.Degraded) == 0 }

// DegradedError joins the per-file failures with file attribution, or
// returns nil when the response is complete. errors.Is matches each
// underlying cause.
func (r *Response) DegradedError() error {
	return (&qof.CorpusResults{Degraded: r.Degraded}).DegradedError()
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

// Execute admits one query and runs it over the published corpus. It
// returns ErrShed, ErrNoCorpus or an error wrapping ErrBadQuery without
// running anything; otherwise the response carries whatever completed, and
// the error is only non-nil when the query-level context ended (the caller
// learns the answer was cut short, with the partial answer attached).
func (s *Server) Execute(ctx context.Context, req Request) (*Response, error) {
	gen := s.gen.Load()
	if gen.epoch == 0 {
		return nil, ErrNoCorpus
	}
	if len(req.Tenant) > maxTenantName {
		s.met.badQuery.Add(1)
		return nil, fmt.Errorf("%w: tenant name of %d bytes, over the %d-byte limit", ErrBadQuery, len(req.Tenant), maxTenantName)
	}
	// Validating prepares: the corpus below finds the query parsed.
	if err := s.cfg.Schema.Prepare(req.Query); err != nil {
		s.met.badQuery.Add(1)
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	ten := s.tenant(req.Tenant)
	tc := s.met.tenant(req.Tenant)
	tc.queries.Add(1)
	release, ok := s.adm.acquire(req.Tenant, ten.MaxInflight)
	if !ok {
		s.met.shed.Add(1)
		tc.shed.Add(1)
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

	// In partial mode the corpus isolates each file's failures and panics;
	// it returns no result only when it failed wholesale (a panic the
	// facade recovered outside any file), and then every file degrades
	// with that cause.
	res, err := gen.corpus.ExecuteContext(ctx, req.Query, opts...)
	resp := &Response{Epoch: gen.epoch, Files: len(gen.files)}
	if res != nil {
		resp.Hits, resp.Degraded, resp.Stats = res.Hits, res.Degraded, res.Stats
	} else {
		for _, f := range gen.files {
			resp.Degraded = append(resp.Degraded, qof.FileError{File: f, Err: err})
		}
	}
	resp.Elapsed = time.Since(start)
	s.met.hist.observe(resp.Elapsed)
	if len(resp.Degraded) > 0 {
		s.met.degraded.Add(1)
	}
	// Only the query-level context ending makes the whole call report
	// interruption; a per-file deadline is already that file's degradation.
	if err := ctx.Err(); err != nil {
		if errors.Is(err, context.Canceled) {
			s.met.canceled.Add(1)
		}
		return resp, err
	}
	s.met.ok.Add(1)
	return resp, nil
}
