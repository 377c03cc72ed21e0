package pool

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qof/internal/qerr"
)

// eventually retries TryGo until a helper takes f: a helper just started
// or just through its last task is not waiting for work yet.
func eventually(t *testing.T, try func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !try(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("no helper took the work")
		}
	}
}

// TestTryGoKeepsTheBudget: with two helpers pinned, two long tasks take
// both, a third is refused at once, and a helper is taken again as soon as
// one is through. No goroutine is started after the pin.
func TestTryGoKeepsTheBudget(t *testing.T) {
	defer SetHelpers(2)()
	base := runtime.NumGoroutine()
	release := make(chan struct{})
	var running sync.WaitGroup
	running.Add(2)
	for i := 0; i < 2; i++ {
		eventually(t, func() bool { return TryGo(func() { running.Done(); <-release }) })
	}
	running.Wait()
	if TryGo(func() { t.Error("ran past the budget") }) {
		t.Fatal("a third task was taken with two helpers pinned")
	}
	if Busy() != 2 {
		t.Errorf("Busy() = %d, want 2", Busy())
	}
	close(release)
	ran := make(chan struct{})
	eventually(t, func() bool { return TryGo(func() { close(ran) }) })
	<-ran
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines, %d before: helpers must not be started per task", n, base)
	}
}

// TestEachRunsEveryIndexOnce: every index runs exactly once whatever the
// budget, a panic is its own index's ErrInternal, and with no budget every
// index runs on the caller.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, helpers := range []int{0, 1, 3} {
		for Busy() > 0 { // a helper finishing another test's task
			runtime.Gosched()
		}
		restore := SetHelpers(helpers)
		const n = 100
		var counts [n]atomic.Int32
		var helped atomic.Bool
		errs := Each(n, func(i int) error {
			counts[i].Add(1)
			if Busy() > 0 {
				helped.Store(true)
			}
			if i == 7 {
				panic("index 7")
			}
			return nil
		})
		restore()
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("%d helpers: index %d ran %d times", helpers, i, c)
			}
			if (errs[i] != nil) != (i == 7) || (i == 7 && !errors.Is(errs[i], qerr.ErrInternal)) {
				t.Fatalf("%d helpers: index %d: %v; only index 7 panics", helpers, i, errs[i])
			}
		}
		if helpers == 0 && helped.Load() {
			t.Errorf("a helper ran with a budget of 0")
		}
	}
	Each(0, func(int) error { t.Error("ran with n = 0"); return nil })
}

// TestSetHelpersRestores: the pin holds until restored, and Size never
// exceeds the helpers running.
func TestSetHelpersRestores(t *testing.T) {
	before := Size()
	restore := SetHelpers(5)
	if Size() != 5 {
		t.Errorf("Size() = %d with 5 pinned", Size())
	}
	inner := SetHelpers(0)
	if Size() != 0 {
		t.Errorf("Size() = %d with 0 pinned", Size())
	}
	inner()
	restore()
	if Size() != before {
		t.Errorf("Size() = %d after the restores, %d before", Size(), before)
	}
	if Size() > runtime.GOMAXPROCS(0)-1 {
		t.Errorf("Size() = %d exceeds GOMAXPROCS−1 = %d", Size(), runtime.GOMAXPROCS(0)-1)
	}
}

// TestGroupWaitsOnlyForStarted: Wait waits for a function that started,
// and one whose helper had not picked it up by Wait never runs.
func TestGroupWaitsOnlyForStarted(t *testing.T) {
	defer SetHelpers(1)()
	for Busy() > 0 {
		runtime.Gosched()
	}
	release := make(chan struct{})
	var g Group
	var ran atomic.Bool
	started := make(chan struct{})
	eventually(t, func() bool { return g.TryGo(func() { close(started); <-release; ran.Store(true) }) })
	<-started
	go func() { time.Sleep(10 * time.Millisecond); close(release) }()
	g.Wait()
	if !ran.Load() {
		t.Fatal("Wait returned before the started function did")
	}

	// Handed to the helper and waited for at once: it either started, and
	// Wait waited for it, or never runs; either way the helper comes back.
	for Busy() > 0 {
		runtime.Gosched()
	}
	var late Group
	var lateRan atomic.Bool
	eventually(t, func() bool { return late.TryGo(func() { lateRan.Store(true) }) })
	late.Wait()
	ranBy := lateRan.Load()
	for deadline := time.Now().Add(5 * time.Second); Busy() > 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("the helper never came back")
		}
	}
	if lateRan.Load() != ranBy {
		t.Error("the function ran after Wait returned")
	}
}
