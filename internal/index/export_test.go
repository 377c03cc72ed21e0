package index

// SetMaxDocLen lowers the document size limit for a test and returns the
// function that restores it.
func SetMaxDocLen(n int) (restore func()) {
	old := maxDocLen
	maxDocLen = n
	return func() { maxDocLen = old }
}
