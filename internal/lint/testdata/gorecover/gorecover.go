// Fixture for the gorecover analyzer: goroutine panic isolation and
// structured join, as required in the engine and serve packages. The
// package name ends in "gorecover", which puts it in the analyzer's scope.
package gorecover

import (
	"errors"
	"sync"
)

var errInternal = errors.New("internal error")

type item struct{ n int }

// parse is project code with no guard of its own: calling it from a bare
// goroutine is risky.
func parse(it item) (int, error) {
	if it.n < 0 {
		panic("negative")
	}
	return it.n, nil
}

// guardedParse installs the canonical recover guard.
func guardedParse(it item) (out int, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = errInternal
		}
	}()
	return parse(it)
}

// GoodDirectGuard: the goroutine body installs its own guard.
func GoodDirectGuard(items []item) error {
	var wg sync.WaitGroup
	errs := make([]error, len(items))
	for i := range items {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[i] = errInternal
				}
			}()
			_, errs[i] = parse(items[i])
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// GoodDelegated: every risky call resolves to a guarded function.
func GoodDelegated(items []item) {
	var wg sync.WaitGroup
	for i := range items {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _ = guardedParse(items[i])
		}(i)
	}
	wg.Wait()
}

// GoodClosureChain: the risky call goes through a local closure that
// delegates to a guarded function — the shape of the engine's phase-2
// build, a closure that calls the recovering build.
func GoodClosureChain(items []item) {
	process := func(i int) error {
		_, err := guardedParse(items[i])
		return err
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range items {
				_ = process(i)
			}
		}()
	}
	wg.Wait()
}

// GoodJoiner makes no risky calls at all: closing over stdlib sync and
// builtins is trusted.
func GoodJoiner(out chan int) {
	var wg sync.WaitGroup
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(out)
	}()
	<-done
}

// BadNoGuard launches project code with no recover anywhere between the
// panic and the runtime.
func BadNoGuard(items []item) {
	var wg sync.WaitGroup
	for i := range items {
		wg.Add(1)
		go func(i int) { // want `goroutine can panic without a recover guard`
			defer wg.Done()
			_, _ = parse(items[i])
		}(i)
	}
	wg.Wait()
}

// BadInterfaceCall pulls from an interface: the implementation is unknown,
// so the guard must sit here — and does not.
type source interface {
	Next() (item, bool, error)
}

func BadInterfaceCall(src source, out chan<- item) {
	done := make(chan struct{})
	go func() { // want `goroutine can panic without a recover guard`
		defer close(done)
		for {
			it, ok, err := src.Next()
			if err != nil || !ok {
				return
			}
			out <- it
		}
	}()
	<-done
}

// GoodInterfaceCall is the same feeder with the guard installed.
func GoodInterfaceCall(src source, out chan<- item) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() {
			if p := recover(); p != nil {
				_ = errInternal
			}
		}()
		for {
			it, ok, err := src.Next()
			if err != nil || !ok {
				return
			}
			out <- it
		}
	}()
	<-done
}

// BadNotJoined spawns and returns without any join: the goroutine outlives
// the call.
func BadNotJoined(items []item) {
	go func() { // want `goroutine is not joined on every return path`
		defer func() {
			if p := recover(); p != nil {
				_ = errInternal
			}
		}()
		for range items {
			_, _ = guardedParse(item{})
		}
	}()
}

// BadJoinSkippedOnError joins on the happy path but returns early without
// waiting when validation fails.
func BadJoinSkippedOnError(items []item, bad bool) error {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // want `goroutine is not joined on every return path`
		defer wg.Done()
		defer func() {
			if p := recover(); p != nil {
				_ = errInternal
			}
		}()
		_, _ = guardedParse(item{})
	}()
	if bad {
		return errInternal
	}
	wg.Wait()
	return nil
}

// GoodJoinAllPaths waits before every return.
func GoodJoinAllPaths(items []item, bad bool) error {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if p := recover(); p != nil {
				_ = errInternal
			}
		}()
		_, _ = guardedParse(item{})
	}()
	if bad {
		wg.Wait()
		return errInternal
	}
	wg.Wait()
	return nil
}

// GoodRangeJoin drains a results channel instead of a WaitGroup.
func GoodRangeJoin(items []item) int {
	out := make(chan int, len(items))
	go func() {
		defer close(out)
		defer func() {
			if p := recover(); p != nil {
				_ = errInternal
			}
		}()
		for _, it := range items {
			n, err := guardedParse(it)
			if err == nil {
				out <- n
			}
		}
	}()
	total := 0
	for n := range out {
		total += n
	}
	return total
}

// Suppressed documents a fire-and-forget goroutine.
func Suppressed() {
	//qoflint:allow gorecover detached metrics flusher, owns no query state
	go func() {
		defer func() {
			if p := recover(); p != nil {
				_ = errInternal
			}
		}()
		_, _ = guardedParse(item{})
	}()
}

// TryGo and Group stand in for package pool's hand-offs, checked as a go
// statement's function is.
func TryGo(f func()) bool { return false }

type Group struct{}

func (g *Group) TryGo(f func()) bool { return false }

// BadHandOffs hand unguarded project code, a literal and an opaque value.
func BadHandOffs(items []item, f func()) {
	work := func() { _, _ = parse(items[0]) }
	TryGo(work) // want `function handed to a pool helper can panic without a recover guard`
	var g Group
	g.TryGo(func() { _, _ = parse(items[0]) }) // want `function handed to a pool helper can panic without a recover guard`
	TryGo(f)                                   // want `function handed to a pool helper can panic without a recover guard`
}

// GoodHandOffs: the grammar build's closure guards itself; pool.Each's
// reaches project code only through a guarded call.
func GoodHandOffs(items []item) (crashed any) {
	joined := make(chan struct{})
	TryGo(func() {
		defer close(joined)
		defer func() { crashed = recover() }()
		_, _ = parse(items[0])
	})
	<-joined
	var g Group
	g.TryGo(func() { _, _ = guardedParse(items[0]) })
	return crashed
}
