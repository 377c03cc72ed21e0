// Path-sensitivity fixtures for the CFG-based lockcheck: cases the PR 4
// source-order scan got wrong (or could not express) and the dataflow
// rewrite must handle. BadConditionalLock in particular pins the old false
// negative — a scan in source order sees the Lock before the access and
// stays silent; the must-hold lockset merges the unlocked path in.
package lockcheck

import "sync"

type Flow struct {
	mu     sync.Mutex
	data   int // guarded by mu
	onDone func()
}

// BadConditionalLock takes the lock on only one path; the access after the
// join is unprotected when cond is false.
func (f *Flow) BadConditionalLock(cond bool) int {
	if cond {
		f.mu.Lock()
		defer f.mu.Unlock()
	}
	return f.data // want `access to f.data without holding f.mu`
}

// GoodBothBranches locks on every path before the join.
func (f *Flow) GoodBothBranches(cond bool) int {
	if cond {
		f.mu.Lock()
	} else {
		f.mu.Lock()
	}
	defer f.mu.Unlock()
	return f.data
}

// GoodDeferAcrossReturns holds the deferred unlock across every early
// return.
func (f *Flow) GoodDeferAcrossReturns(cond bool) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if cond {
		return f.data
	}
	if f.data > 10 {
		return 10
	}
	return f.data
}

// BadBranchUnlock releases on one branch and keeps reading after the join.
func (f *Flow) BadBranchUnlock(cond bool) int {
	f.mu.Lock()
	if cond {
		f.mu.Unlock()
	}
	v := f.data // want `access to f.data without holding f.mu`
	if !cond {
		f.mu.Unlock()
	}
	return v
}

// GoodLoopAccess locks before the loop; the back edge keeps it held.
func (f *Flow) GoodLoopAccess(n int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	total := 0
	for i := 0; i < n; i++ {
		total += f.data
	}
	return total
}

// BadLoopEntry reaches the access before any Lock on the first iteration.
func (f *Flow) BadLoopEntry(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		total += f.data // want `access to f.data without holding f.mu`
		f.mu.Lock()
		f.mu.Unlock()
	}
	return total
}

// GoodSwitch locks in every case, including default.
func (f *Flow) GoodSwitch(k int) int {
	switch k {
	case 0:
		f.mu.Lock()
	default:
		f.mu.Lock()
	}
	defer f.mu.Unlock()
	return f.data
}

// BadSwitchMissingCase leaves one case unlocked.
func (f *Flow) BadSwitchMissingCase(k int) int {
	switch k {
	case 0:
		f.mu.Lock()
	case 1:
	default:
		f.mu.Lock()
	}
	return f.data // want `access to f.data without holding f.mu`
}

// GoodClosureLocks: a function literal is analyzed on its own; this one
// takes its own lock.
func (f *Flow) GoodClosureLocks() func() int {
	return func() int {
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.data
	}
}

// BadClosureNoLock: the literal is entered with the lockset at its
// creation point — empty here.
func (f *Flow) BadClosureNoLock() func() int {
	return func() int {
		return f.data // want `access to f.data without holding f.mu`
	}
}

// GoodClosureSnapshot is created and called while the lock is held.
func (f *Flow) GoodClosureSnapshot() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	get := func() int { return f.data }
	return get()
}

// BadEscapingRelease is an admission acquire whose release closure is
// created under the lock but returned: it runs after the deferred Unlock.
func (f *Flow) BadEscapingRelease() (release func(), ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.data++
	return func() {
		f.data-- // want `access to f.data without holding f.mu`
	}, true
}

// GoodEscapingRelease takes the lock inside the returned closure.
func (f *Flow) GoodEscapingRelease() (release func(), ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.data++
	return func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		f.data--
	}, true
}

// BadGoUnderLock starts a goroutine while holding the lock; the goroutine
// does not hold it.
func (f *Flow) BadGoUnderLock() {
	f.mu.Lock()
	defer f.mu.Unlock()
	go func() {
		f.data++ // want `access to f.data without holding f.mu`
	}()
}

// BadStoredCallback stores a closure in a field that outlives the call.
func (f *Flow) BadStoredCallback() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.onDone = func() {
		f.data = 0 // want `access to f.data without holding f.mu`
	}
}
