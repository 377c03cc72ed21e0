// Command qofd is the sharded multi-tenant query daemon: it indexes a set
// of files under one of the built-in schemas, hashes them across N engine
// shards, and serves XSQL queries over HTTP/JSON with fair-share admission
// control, per-tenant budgets, partial-answer degradation and hot reload.
//
// Usage:
//
//	qofd -domain bibtex [-addr :8080] [-shards 4] [flags] FILE...
//	qofd -domain logs -dir /var/corpora/logs
//
// Endpoints:
//
//	POST /query    {"query": "SELECT ...", "tenant": "...", "timeout_ms": N,
//	                "max_regions": N, "max_eval_bytes": N}
//	GET  /query?q=SELECT+...&tenant=...
//	GET  /healthz  liveness + current epoch
//	GET  /metrics  counters, latency quantiles, per-tenant accounting
//	POST /reload   re-read the sources and publish them as the next epoch
//
// With -debug-addr the daemon also serves net/http/pprof, and nothing else,
// on a second listener: a profile of the live process is one
// `go tool pprof http://ADDR/debug/pprof/profile?seconds=10` away. It is off
// by default and kept apart from the query address so that exposing queries
// never exposes profiles.
//
// A query answered by a sharded daemon is byte-identical to the same query
// against a single corpus holding every file; see docs/SERVING.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"qof"
	"qof/internal/serve"
)

// releaseAfterReload returns the index build's transient heap to the
// operating system once a /reload has swapped the new generation in and its
// response is on the wire. A publish parses and indexes every file beside
// the generation being served, and queries make too little garbage for the
// collector to come round soon on its own: without this the resident set
// stays at the build's high-water mark. The start-up publish gets the same
// treatment in run. This is the daemon's call to make — a library caller's
// collector is theirs.
func releaseAfterReload(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if r.URL.Path == "/reload" && r.Method == http.MethodPost {
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			debug.FreeOSMemory()
		}
	})
}

// What a client may take of the daemon before it has asked anything. The
// tenant deadline bounds a handler, so ReadTimeout and WriteTimeout stay
// unset; these bound what comes before one runs: a request line and headers
// that never finish arriving (slowloris), a keep-alive connection that never
// sends another request, a header block without end. bodyTimeout, below,
// bounds the body that follows.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
)

// bodyTimeout bounds how long a POSTed body may take to arrive once its
// headers have: the header timeout ends before the body, and the tenant
// deadline starts only once the body is decoded. A body that misses it is
// answered 408 and its connection closed. Tests shorten readBodyTimeout.
const bodyTimeout = 5 * time.Second

var readBodyTimeout = bodyTimeout

// boundBody reads a POSTed body whole, under readBodyTimeout, before h
// runs, and hands h the bytes. It reads at most one byte past
// serve.MaxBodyBytes, so h still refuses an oversized body whole.
func boundBody(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			rc := http.NewResponseController(w)
			_ = rc.SetReadDeadline(time.Now().Add(readBodyTimeout)) // a net/http connection always takes one
			body, err := io.ReadAll(io.LimitReader(r.Body, serve.MaxBodyBytes+1))
			if err != nil {
				// A deadline that passed stays: it also bounds the server's
				// drain of the rest of the body.
				status := http.StatusBadRequest
				if errors.Is(err, os.ErrDeadlineExceeded) {
					status = http.StatusRequestTimeout
					w.Header().Set("Connection", "close")
				}
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(status)
				_ = json.NewEncoder(w).Encode(map[string]string{"error": "reading body: " + err.Error()}) // a client gone is no error of ours
				return
			}
			// Left behind, the deadline would cancel the query the body carries.
			_ = rc.SetReadDeadline(time.Time{})
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		h.ServeHTTP(w, r)
	})
}

func newServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "qofd: %v\n", err)
		os.Exit(1)
	}
}

// pprofHandler serves the runtime's profiles and nothing else. The handlers
// are mounted by hand: the default mux, where importing net/http/pprof
// registers them, is not served by either listener.
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// schemaFor maps a -domain name onto its facade schema.
func schemaFor(name string) (*qof.Schema, error) {
	switch name {
	case "bibtex":
		return qof.BibTeX(), nil
	case "logs":
		return qof.Logs(), nil
	case "sgml":
		return qof.SGML(), nil
	case "src":
		return qof.SourceCode(), nil
	}
	return nil, fmt.Errorf("unknown domain %q (have bibtex, logs, sgml, src)", name)
}

// run is the daemon body, separated from main so tests can drive it with a
// cancelable context and capture the startup line (which carries the bound
// address when -addr picks port 0).
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("qofd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	dom := fs.String("domain", "bibtex", "file format: bibtex, logs, sgml, src")
	shards := fs.Int("shards", 1, "engine shards to place documents across")
	replicas := fs.Int("replicas", 2, "shards routing to each document's one engine (clamped to shards; 1 disables replication)")
	hedgeAfter := fs.Duration("hedge-after", 0, "delay before hedging a slow replica attempt (0 = adaptive p99, negative disables)")
	breakerThreshold := fs.Int("breaker-threshold", 5, "consecutive replica faults that open its circuit breaker")
	breakerCooldown := fs.Duration("breaker-cooldown", time.Second, "open-breaker cooldown before a half-open probe")
	maxInflight := fs.Int("max-inflight", 64, "queries executing at once before shedding")
	timeout := fs.Duration("timeout", 10*time.Second, "default per-query deadline")
	shardTimeout := fs.Duration("shard-timeout", 0, "per-shard deadline; a slow shard degrades instead of stalling the query (0 = none)")
	fileTimeout := fs.Duration("file-timeout", 0, "per-file deadline within a shard (0 = none)")
	maxRegions := fs.Int("max-regions", 0, "default per-file region budget (0 = unlimited)")
	maxBytes := fs.Int("max-bytes", 0, "default per-file parsed-bytes budget (0 = unlimited)")
	retryAfter := fs.Duration("retry-after", time.Second, "Retry-After hint on shed responses")
	dir := fs.String("dir", "", "serve every regular file in this directory (instead of positional FILEs)")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof on this separate address (default: off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	schema, err := schemaFor(*dom)
	if err != nil {
		return err
	}
	paths := fs.Args()
	if (*dir == "") == (len(paths) == 0) {
		return errors.New("usage: qofd -domain D [flags] FILE...  |  qofd -domain D [flags] -dir DIR")
	}

	// load re-reads the corpus sources; it runs once at startup and again on
	// every POST /reload, so edits to the files land as the next epoch.
	load := func(ctx context.Context) (map[string]string, error) {
		list := paths
		if *dir != "" {
			entries, err := os.ReadDir(*dir)
			if err != nil {
				return nil, err
			}
			list = nil
			for _, e := range entries {
				if e.Type().IsRegular() {
					list = append(list, filepath.Join(*dir, e.Name()))
				}
			}
			sort.Strings(list)
		}
		if len(list) == 0 {
			return nil, fmt.Errorf("no files to serve")
		}
		files := make(map[string]string, len(list))
		for _, p := range list {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			data, err := os.ReadFile(p)
			if err != nil {
				return nil, err
			}
			name := filepath.Base(p)
			if _, dup := files[name]; dup {
				return nil, fmt.Errorf("duplicate document name %q", name)
			}
			files[name] = string(data)
		}
		return files, nil
	}

	srv, err := serve.New(serve.Config{
		Schema:           schema,
		Shards:           *shards,
		Replicas:         *replicas,
		HedgeAfter:       *hedgeAfter,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		MaxInflight:      *maxInflight,
		DefaultTimeout:   *timeout,
		ShardTimeout:     *shardTimeout,
		FileTimeout:      *fileTimeout,
		DefaultLimits:    serve.Limits{MaxRegions: *maxRegions, MaxEvalBytes: *maxBytes},
		RetryAfter:       *retryAfter,
		Reload:           load,
	})
	if err != nil {
		return err
	}
	files, err := load(ctx)
	if err != nil {
		return err
	}
	if _, err := srv.PublishContext(ctx, files); err != nil {
		return fmt.Errorf("indexing corpus: %w", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	r := *replicas
	if r > *shards {
		r = *shards
	}
	if r < 1 {
		r = 1
	}
	fmt.Fprintf(stdout, "qofd: %d files, %d shards x%d replicas, domain %s, epoch %d on http://%s\n",
		len(files), *shards, r, *dom, srv.Epoch(), ln.Addr())

	hs := newServer(boundBody(releaseAfterReload(srv.Handler())))
	errc := make(chan error, 2)
	go func() { errc <- hs.Serve(ln) }()
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			hs.Close()
			return err
		}
		fmt.Fprintf(stdout, "qofd: pprof on http://%s/debug/pprof/\n", dln.Addr())
		ds := newServer(pprofHandler())
		go func() { errc <- ds.Serve(dln) }()
		defer ds.Close()
	}
	// The listener is up and answering; now give back what the build left.
	debug.FreeOSMemory()
	select {
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return hs.Shutdown(sctx)
	case err := <-errc:
		return err
	}
}
