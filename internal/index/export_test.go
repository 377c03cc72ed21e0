package index

// UniverseBuilt reports whether in holds a built universe.
func UniverseBuilt(in *Instance) bool {
	in.uniMu.Lock()
	defer in.uniMu.Unlock()
	return in.universe != nil
}

// SetMaxDocLen lowers the document size limit for a test and returns the
// function that restores it.
func SetMaxDocLen(n int) (restore func()) {
	old := maxDocLen
	maxDocLen = n
	return func() { maxDocLen = old }
}
