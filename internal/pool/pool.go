// Package pool is the process's one budget of helper goroutines:
// GOMAXPROCS−1 of them, started with the package and never exiting. Every
// layer that can spread a query's work across cores — a corpus's files, a
// phase-2 drain's chunks, a build's word index, the daemon's replica groups
// — takes an idle helper or does the work on its own goroutine, so the
// process never runs more helpers than the budget however many queries are
// in flight, and taking one costs a channel hand-off, not a new goroutine.
package pool

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"qof/internal/qerr"
)

var (
	work    = make(chan func()) // unbuffered: a send is received by an idle helper
	busy    atomic.Int32        // helpers taken by TryGo and not yet through
	started atomic.Int32        // helpers running; they never exit
	pinned  atomic.Int32        // SetHelpers' budget, or −1 for GOMAXPROCS−1
	startMu sync.Mutex
)

func init() {
	pinned.Store(-1)
	start(runtime.GOMAXPROCS(0) - 1)
}

// start grows the helpers to at least n.
func start(n int) {
	startMu.Lock()
	defer startMu.Unlock()
	for ; int(started.Load()) < n; started.Add(1) {
		go func() {
			for f := range work {
				f()
				busy.Add(-1)
			}
		}()
	}
}

// Size reports the helper budget: GOMAXPROCS−1, or what SetHelpers pinned,
// and never more than the helpers running (a later rise of GOMAXPROCS
// starts none).
func Size() int {
	if p := int(pinned.Load()); p >= 0 {
		return min(int(started.Load()), p)
	}
	return min(int(started.Load()), runtime.GOMAXPROCS(0)-1)
}

// Busy reports how many helpers are taken.
func Busy() int { return int(busy.Load()) }

// TryGo runs f on an idle helper and reports true, or reports false at once
// when the budget is spent or no helper is waiting for work. f must not
// panic: a helper never exits, so a panic in f ends the process.
func TryGo(f func()) bool {
	if b := int(busy.Add(1)); b > int(started.Load()) || b > Size() {
		busy.Add(-1)
		return false
	}
	select {
	case work <- f:
		return true
	default: // the helpers free under the budget are still on their way back
		busy.Add(-1)
		return false
	}
}

// Group hands functions to idle helpers and waits for those that started.
// A function whose helper had not picked it up by Wait never runs, and its
// helper is back in the budget at once: the caller does that work itself,
// so it never waits for a helper to wake, and nor does the next caller.
// The zero Group is ready to use.
type Group struct {
	mu      sync.Mutex
	over    bool
	pending int32 // handed to a helper that has not started it
	wg      sync.WaitGroup
}

// TryGo is the package's TryGo for f, counted by g.
func (g *Group) TryGo(f func()) bool {
	if Busy() >= int(started.Load()) {
		return false // every helper is taken: skip the hand-off's cost
	}
	g.mu.Lock()
	g.pending++
	g.mu.Unlock()
	ok := TryGo(func() {
		g.mu.Lock()
		if g.over {
			g.mu.Unlock()
			busy.Add(1) // Wait gave this helper back already
			return
		}
		g.pending--
		g.wg.Add(1)
		g.mu.Unlock()
		defer g.wg.Done()
		f()
	})
	if !ok {
		g.mu.Lock()
		g.pending--
		g.mu.Unlock()
	}
	return ok
}

// Wait returns once every function that started has, stops the rest from
// starting and gives their helpers back to the budget.
func (g *Group) Wait() {
	g.mu.Lock()
	g.over = true
	busy.Add(-g.pending)
	g.mu.Unlock()
	g.wg.Wait()
}

// Each runs do(0) … do(n−1) on the calling goroutine and on as many idle
// helpers as the budget allows, each pulling the next index from a shared
// counter, and returns their errors by index once every call has. A panic
// in do(i) is do(i)'s error, wrapping qerr.ErrInternal, so one bad index
// fails alone.
func Each(n int, do func(i int) error) []error {
	var (
		errs    = make([]error, n)
		next    atomic.Int64
		helpers Group
	)
	run := func(i int) {
		defer func() {
			if p := recover(); p != nil {
				errs[i] = fmt.Errorf("panic: %v: %w", p, qerr.ErrInternal)
			}
		}()
		errs[i] = do(i)
	}
	pull := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			run(i)
		}
	}
	for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
		if int(next.Load()) < n { // work is left after this index: offer it
			helpers.TryGo(pull)
		}
		run(i)
	}
	helpers.Wait()
	return errs
}

// SetHelpers pins the budget at n helpers, starting helpers up to n, and
// returns a function that restores the budget it replaced. It is the hook
// for tests and experiments that compare a drain or a fan-out with and
// without helpers.
func SetHelpers(n int) (restore func()) {
	start(n)
	old := pinned.Swap(int32(max(n, 0)))
	return func() { pinned.Store(old) }
}
