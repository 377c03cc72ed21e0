// Package faultinject provides deterministic, seedable failpoints for the
// fault-matrix test suite. Production code calls Hit(name) at the places
// where real systems fail — index builds, persistence, caches, worker pools
// — and the package decides whether that call errors, panics, or stalls.
//
// Failpoints are off by default and cost one atomic load when disabled, so
// shipping the hooks in production paths is free. Tests enable them with
// Configure and must Reset afterwards; configuration is process-global, so
// tests that configure failpoints must not run in parallel with each other.
//
// A configuration is a comma-separated list of directives:
//
//	name=kind[:arg][@trigger]
//
// where kind is one of
//
//	error        Hit returns an error wrapping ErrInjected
//	panic        Hit panics with an InjectedPanic value
//	delay:DUR    Hit sleeps for DUR (e.g. delay:20ms), then returns nil
//
// and the optional trigger selects which hits fire:
//
//	@N      only the N-th hit of this failpoint (1-based)
//	@N+     every hit from the N-th on
//	%P/S    each hit independently with probability P from a PRNG seeded
//	        with S (e.g. %0.3/42) — seeded, so runs are reproducible
//
// With no trigger, every hit fires. Examples:
//
//	faultinject.Configure("persist.load=error")
//	faultinject.Configure("engine.phase2=panic@2, index.build=delay:50ms")
//	faultinject.Configure("resultcache.put=error%0.5/7")
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is wrapped by every error a failpoint returns, so tests can
// assert with errors.Is that a failure came from injection and production
// code can never confuse it with a real error.
var ErrInjected = errors.New("faultinject: injected fault")

// InjectedPanic is the value a panic-kind failpoint panics with; recovery
// boundaries may inspect it, and its presence in a recovered value
// distinguishes injected panics from real bugs in tests.
type InjectedPanic struct{ Name string }

func (p InjectedPanic) String() string { return "injected panic at " + p.Name }

// The failpoint catalog. Every Hit call site uses one of these names; the
// fault-matrix suite iterates Catalog to prove each is exercised.
const (
	IndexBuild     = "index.build"     // grammar.BuildInstance: parse + region extraction
	PersistSave    = "persist.save"    // index.Instance.Save
	PersistLoad    = "persist.load"    // index.Load
	PlanCacheGet   = "plancache.get"   // compile.Catalog.Prepare, Prepared.Plan lookups (fires = forced miss)
	PlanCachePut   = "plancache.put"   // the inserts after them (fires = entry dropped)
	ResultCacheGet = "resultcache.get" // engine.ResultCache.Get (fires = forced miss)
	ResultCachePut = "resultcache.put" // engine.ResultCache.Put (fires = entry dropped)
	Phase2         = "engine.phase2"   // per-candidate work in the phase-2 pool
	CorpusFile     = "corpus.file"     // per-file evaluation in Corpus.Execute*
	ServePublish   = "serve.publish"   // serve.Server.Publish, after the build and before the swap
)

// Catalog lists every failpoint name in stable order.
func Catalog() []string {
	return []string{
		IndexBuild, PersistSave, PersistLoad,
		PlanCacheGet, PlanCachePut, ResultCacheGet, ResultCachePut,
		Phase2, CorpusFile, ServePublish,
	}
}

type kind int

const (
	kindError kind = iota
	kindPanic
	kindDelay
)

// rule is one configured failpoint.
type rule struct {
	kind  kind
	delay time.Duration

	// trigger selection: exactly-N, from-N-on, or seeded probability.
	at   uint64 // fire only on hit at (0 = unused)
	from uint64 // fire on every hit >= from (0 = unused)
	prob float64

	hits atomic.Uint64

	rngMu sync.Mutex
	rng   *rand.Rand // guarded by rngMu; nil unless prob > 0
}

var (
	active atomic.Bool // fast gate: false means Hit is a no-op

	mu    sync.Mutex
	rules map[string]*rule // guarded by mu
)

// Configure replaces the failpoint configuration with the parsed spec and
// activates injection. An empty spec is an error; use Reset to disable.
func Configure(spec string) error {
	parsed := make(map[string]*rule)
	any := false
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, r, err := parseDirective(part)
		if err != nil {
			return err
		}
		parsed[name] = r
		any = true
	}
	if !any {
		return fmt.Errorf("faultinject: empty configuration %q", spec)
	}
	mu.Lock()
	rules = parsed
	mu.Unlock()
	active.Store(true)
	return nil
}

// parseDirective parses one "name=kind[:arg][@trigger]" directive.
func parseDirective(s string) (string, *rule, error) {
	name, rest, ok := strings.Cut(s, "=")
	name = strings.TrimSpace(name)
	if !ok || name == "" || rest == "" {
		return "", nil, fmt.Errorf("faultinject: bad directive %q (want name=kind[:arg][@trigger])", s)
	}
	r := &rule{}

	// Split off the trigger suffix: @N, @N+ or %P/S.
	body := rest
	if i := strings.IndexAny(rest, "@%"); i >= 0 {
		body = rest[:i]
		trig := rest[i:]
		switch trig[0] {
		case '@':
			numeric := strings.TrimSuffix(trig[1:], "+")
			n, err := strconv.ParseUint(numeric, 10, 64)
			if err != nil || n == 0 {
				return "", nil, fmt.Errorf("faultinject: bad trigger %q in %q", trig, s)
			}
			if strings.HasSuffix(trig, "+") {
				r.from = n
			} else {
				r.at = n
			}
		case '%':
			probStr, seedStr, ok := strings.Cut(trig[1:], "/")
			if !ok {
				return "", nil, fmt.Errorf("faultinject: bad probability trigger %q in %q (want %%P/SEED)", trig, s)
			}
			p, err := strconv.ParseFloat(probStr, 64)
			if err != nil || p <= 0 || p > 1 {
				return "", nil, fmt.Errorf("faultinject: bad probability %q in %q", probStr, s)
			}
			seed, err := strconv.ParseInt(seedStr, 10, 64)
			if err != nil {
				return "", nil, fmt.Errorf("faultinject: bad seed %q in %q", seedStr, s)
			}
			r.prob = p
			r.rngMu.Lock()
			r.rng = rand.New(rand.NewSource(seed))
			r.rngMu.Unlock()
		}
	}

	kindStr, arg, _ := strings.Cut(strings.TrimSpace(body), ":")
	switch kindStr {
	case "error":
		r.kind = kindError
	case "panic":
		r.kind = kindPanic
	case "delay":
		d, err := time.ParseDuration(arg)
		if err != nil || d < 0 {
			return "", nil, fmt.Errorf("faultinject: bad delay %q in %q", arg, s)
		}
		r.kind = kindDelay
		r.delay = d
	default:
		return "", nil, fmt.Errorf("faultinject: unknown kind %q in %q (want error, panic or delay:DUR)", kindStr, s)
	}
	return name, r, nil
}

// Reset disables every failpoint and clears the configuration.
func Reset() {
	active.Store(false)
	mu.Lock()
	rules = nil
	mu.Unlock()
}

// Active reports whether any failpoint configuration is installed.
func Active() bool { return active.Load() }

// Hits reports how many times the named failpoint has been reached since it
// was configured (fired or not), for test observability.
func Hits(name string) uint64 {
	mu.Lock()
	r := rules[name]
	mu.Unlock()
	if r == nil {
		return 0
	}
	return r.hits.Load()
}

// Hit is the instrumentation point: production code calls it where a real
// failure could occur. When the named failpoint is configured and its
// trigger matches, Hit returns an error wrapping ErrInjected, panics with an
// InjectedPanic, or sleeps, per the configured kind. Disabled, it is a
// single atomic load.
func Hit(name string) error {
	if !active.Load() {
		return nil
	}
	return hitSlow(name)
}

func hitSlow(name string) error {
	mu.Lock()
	r := rules[name]
	mu.Unlock()
	if r == nil {
		return nil
	}
	n := r.hits.Add(1)
	if !r.fires(n) {
		return nil
	}
	switch r.kind {
	case kindPanic:
		panic(InjectedPanic{Name: name})
	case kindDelay:
		time.Sleep(r.delay)
		return nil
	default:
		return fmt.Errorf("%s: %w", name, ErrInjected)
	}
}

// fires decides whether the n-th hit triggers the rule.
func (r *rule) fires(n uint64) bool {
	switch {
	case r.at > 0:
		return n == r.at
	case r.from > 0:
		return n >= r.from
	case r.prob > 0:
		r.rngMu.Lock()
		v := r.rng.Float64()
		r.rngMu.Unlock()
		return v < r.prob
	default:
		return true
	}
}

// String renders the installed configuration (for error messages and the
// faults CI job log), one directive per failpoint in name order.
func String() string {
	mu.Lock()
	defer mu.Unlock()
	if len(rules) == 0 {
		return "<disabled>"
	}
	names := make([]string, 0, len(rules))
	for n := range rules {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, n := range names {
		parts = append(parts, n+"="+rules[n].describe())
	}
	return strings.Join(parts, ",")
}

func (r *rule) describe() string {
	var b strings.Builder
	switch r.kind {
	case kindPanic:
		b.WriteString("panic")
	case kindDelay:
		fmt.Fprintf(&b, "delay:%s", r.delay)
	default:
		b.WriteString("error")
	}
	switch {
	case r.at > 0:
		fmt.Fprintf(&b, "@%d", r.at)
	case r.from > 0:
		fmt.Fprintf(&b, "@%d+", r.from)
	case r.prob > 0:
		fmt.Fprintf(&b, "%%%g", r.prob)
	}
	return b.String()
}
