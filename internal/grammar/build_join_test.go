package grammar

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"qof/internal/faultinject"
	"qof/internal/index"
	"qof/internal/text"
)

// waitGoroutines polls until the goroutine count is back at base. The
// build's word-index side runs on a helper (package pool) or on the caller,
// and helpers never exit, so the count should already be there.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d running, started with %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBuildJoinsItsGoroutine: on every path out of BuildInstanceContext —
// success, a document that does not parse, a context canceled before the
// build, the IndexBuild failpoint's error and panic, a panic on either side
// — the word-index side has finished if it was started, nothing is
// left running, and a panic arrives on the calling goroutine with the value
// it was raised with. Run under -race.
func TestBuildJoinsItsGoroutine(t *testing.T) {
	good := text.NewDocument("mini.bib", miniDoc)
	var bad *text.Document
	g := miniBibtex(t)
	for _, m := range mutatedInputs() {
		doc := text.NewDocument("mut.bib", m)
		if _, err := g.Parse(doc); err != nil {
			bad = doc
			break
		}
	}
	if bad == nil {
		t.Fatal("no mutated input fails to parse")
	}
	parsePanics := miniBibtexUnvalidated()
	parsePanics.terms["Ident"] = func(string) int { panic("parse side") }
	if err := parsePanics.Validate(); err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	// The word-index side, instrumented: what was started has finished by
	// the time the build is back, whichever way it comes back.
	var started, finished atomic.Int32
	wordPanics := false
	defer func(old func(*text.Document) *index.WordIndex) { newWordIndex = old }(newWordIndex)
	newWordIndex = func(doc *text.Document) *index.WordIndex {
		started.Add(1)
		defer finished.Add(1)
		if wordPanics {
			panic("word-index side")
		}
		time.Sleep(2 * time.Millisecond) // outlast the parse of a short file
		return index.NewWordIndex(doc)
	}

	cases := []struct {
		name      string
		g         *Grammar
		ctx       context.Context
		doc       *text.Document
		fault     string
		wordPanic bool
		starts    int32
		check     func(in *index.Instance, err error, panicked any) error
	}{
		{name: "ok", g: g, doc: good, starts: 1, check: func(in *index.Instance, err error, p any) error {
			if err != nil || p != nil || in == nil || !in.Has("Reference") {
				return fmt.Errorf("instance %v, error %v, panic %v", in, err, p)
			}
			return nil
		}},
		{name: "parse error", g: g, doc: bad, starts: 1, check: func(in *index.Instance, err error, p any) error {
			var perr *ParseError
			if !errors.As(err, &perr) || p != nil || in != nil {
				return fmt.Errorf("instance %v, error %v, panic %v; want a ParseError", in, err, p)
			}
			return nil
		}},
		{name: "canceled before", g: g, ctx: canceled, doc: good, starts: 0, check: func(in *index.Instance, err error, p any) error {
			if !errors.Is(err, context.Canceled) || p != nil || in != nil {
				return fmt.Errorf("instance %v, error %v, panic %v; want context.Canceled", in, err, p)
			}
			return nil
		}},
		{name: "failpoint error", g: g, doc: good, fault: "index.build=error", starts: 0, check: func(in *index.Instance, err error, p any) error {
			if !errors.Is(err, faultinject.ErrInjected) || p != nil || in != nil {
				return fmt.Errorf("instance %v, error %v, panic %v; want ErrInjected", in, err, p)
			}
			return nil
		}},
		{name: "failpoint panic", g: g, doc: good, fault: "index.build=panic", starts: 0, check: func(in *index.Instance, err error, p any) error {
			if _, ok := p.(faultinject.InjectedPanic); !ok {
				return fmt.Errorf("panic %v (%T), want the injected one", p, p)
			}
			return nil
		}},
		{name: "word-index panic", g: g, doc: good, wordPanic: true, starts: 1, check: func(in *index.Instance, err error, p any) error {
			if p != "word-index side" {
				return fmt.Errorf("panic %v, want the word-index side's value on this goroutine", p)
			}
			return nil
		}},
		{name: "word-index panic beside a parse error", g: g, doc: bad, wordPanic: true, starts: 1, check: func(in *index.Instance, err error, p any) error {
			if p != "word-index side" {
				return fmt.Errorf("panic %v, error %v; the panic must not be lost behind the parse error", p, err)
			}
			return nil
		}},
		{name: "parse panic", g: parsePanics, doc: good, starts: 1, check: func(in *index.Instance, err error, p any) error {
			if p != "parse side" {
				return fmt.Errorf("panic %v, want the parse side's", p)
			}
			return nil
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			if c.fault != "" {
				if err := faultinject.Configure(c.fault); err != nil {
					t.Fatal(err)
				}
				defer faultinject.Reset()
			}
			ctx := c.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			wordPanics = c.wordPanic
			started.Store(0)
			finished.Store(0)
			var (
				in       *index.Instance
				tree     *Node
				err      error
				panicked any
			)
			func() {
				defer func() { panicked = recover() }()
				in, tree, err = c.g.BuildInstanceContext(ctx, c.doc, IndexSpec{Names: []string{"Reference", "Key"}})
			}()
			// Read before anything else can run: the build is back, so its
			// word-index side must be.
			if s, f := started.Load(), finished.Load(); s != c.starts || f != s {
				t.Errorf("word-index side started %d times and had finished %d when the build returned; want %d and %d", s, f, c.starts, c.starts)
			}
			if cerr := c.check(in, err, panicked); cerr != nil {
				t.Error(cerr)
			}
			if tree != nil {
				t.Error("the build handed out a tree")
			}
			waitGoroutines(t, base)
		})
	}
}
