// Package testutil provides the shared corpus and fixture builders used by
// the integration tests. Several packages (engine, compile, refeval/diff)
// previously grew their own copies of the same few lines — generate a BibTeX
// corpus, wrap it in a document, build an instance under some index spec —
// and this package is the single home for that pattern.
package testutil

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"qof/internal/bibtex"
	"qof/internal/compile"
	"qof/internal/engine"
	"qof/internal/grammar"
	"qof/internal/index"
	"qof/internal/pool"
	"qof/internal/text"
)

// BibFixture bundles everything an engine-level integration test needs:
// the catalog, the generated document with its ground-truth stats, the
// index instance, and an engine over it.
type BibFixture struct {
	Cat  *compile.Catalog
	Doc  *text.Document
	Eng  *engine.Engine
	St   bibtex.Stats
	In   *index.Instance
	Spec grammar.IndexSpec
}

// NewBibFixture generates an n-reference corpus and builds an engine over it
// under the given index spec. The target author/editor shares default to
// 0.15/0.25 so the ground-truth counts tests assert on stay non-trivial;
// mutate may adjust any config field (including the shares) before
// generation.
func NewBibFixture(t testing.TB, n int, spec grammar.IndexSpec, mutate func(*bibtex.Config)) *BibFixture {
	t.Helper()
	doc, st := BibDoc(t, "corpus.bib", n, func(cfg *bibtex.Config) {
		cfg.TargetAuthorShare = 0.15
		cfg.TargetEditorShare = 0.25
		if mutate != nil {
			mutate(cfg)
		}
	})
	cat := bibtex.Catalog()
	in, _, err := cat.Grammar.BuildInstance(doc, spec)
	if err != nil {
		t.Fatal(err)
	}
	return &BibFixture{Cat: cat, Doc: doc, Eng: engine.New(cat, in), St: st, In: in, Spec: spec}
}

// BibDoc generates one BibTeX corpus file with n references and returns it
// as a document together with its generation stats. mutate may adjust the
// config (seed, shares, …) before generation.
func BibDoc(t testing.TB, name string, n int, mutate func(*bibtex.Config)) (*text.Document, bibtex.Stats) {
	t.Helper()
	cfg := bibtex.DefaultConfig(n)
	if mutate != nil {
		mutate(&cfg)
	}
	content, st := bibtex.Generate(cfg)
	return text.NewDocument(name, content), st
}

// NewBibInstance generates an n-reference corpus and indexes it under spec,
// returning the catalog and instance — the compile-level cousin of
// NewBibFixture for tests that plan but never execute.
func NewBibInstance(t testing.TB, n int, spec grammar.IndexSpec) (*compile.Catalog, *index.Instance) {
	t.Helper()
	doc, _ := BibDoc(t, "t.bib", n, nil)
	cat := bibtex.Catalog()
	in, _, err := cat.Grammar.BuildInstance(doc, spec)
	if err != nil {
		t.Fatal(err)
	}
	return cat, in
}

// BibCorpusDocs generates files distinct BibTeX documents of refs
// references each (distinct seeds, so contents differ), for corpus-level
// tests.
func BibCorpusDocs(t testing.TB, files, refs int) []*text.Document {
	t.Helper()
	docs := make([]*text.Document, files)
	for i := range docs {
		i := i
		docs[i], _ = BibDoc(t, fmt.Sprintf("file%02d.bib", i), refs, func(cfg *bibtex.Config) {
			cfg.Seed = int64(1000 + i)
		})
	}
	return docs
}

// GoroutineProbe is a context that never ends and records, at every poll,
// the most goroutines it has seen running and the most helpers (package
// pool) it has seen busy. Passed to a query, it shows whether the query
// started goroutines and how many helpers ran beside its own goroutine
// while it worked.
type GoroutineProbe struct {
	context.Context
	done    chan struct{}
	max     *atomic.Int64
	maxBusy *atomic.Int64
}

// NewGoroutineProbe returns a probe that has seen nothing yet, once no
// helper is still finishing earlier work, so the helpers it sees busy are
// the query's.
func NewGoroutineProbe() GoroutineProbe {
	for pool.Busy() > 0 {
		runtime.Gosched()
	}
	return GoroutineProbe{Context: context.Background(), done: make(chan struct{}), max: new(atomic.Int64), maxBusy: new(atomic.Int64)}
}

// Done records the goroutine and busy-helper counts, since a poll calls it
// (and calls Err only once Done is closed), and returns a channel that is
// never closed.
func (p GoroutineProbe) Done() <-chan struct{} {
	raise(p.max, int64(runtime.NumGoroutine()))
	raise(p.maxBusy, int64(pool.Busy()))
	return p.done
}

// Err reports nothing done.
func (p GoroutineProbe) Err() error { return nil }

// raise sets m to n if n is larger.
func raise(m *atomic.Int64, n int64) {
	for v := m.Load(); n > v && !m.CompareAndSwap(v, n); v = m.Load() {
	}
}

// Max reports the most goroutines seen at one poll.
func (p GoroutineProbe) Max() int { return int(p.max.Load()) }

// MaxBusy reports the most busy helpers seen at one poll.
func (p GoroutineProbe) MaxBusy() int { return int(p.maxBusy.Load()) }
