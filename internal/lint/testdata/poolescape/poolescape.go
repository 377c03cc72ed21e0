// Fixture for the poolescape analyzer: pooled memory must stay inside the
// function that got it (or inside unexported wrapper plumbing), and must
// not be touched after Put.
package poolescape

import "sync"

type buf struct{ s []int }

var pool = sync.Pool{New: func() any { return new(buf) }}

func getBuf() *buf  { return pool.Get().(*buf) }
func putBuf(b *buf) { pool.Put(b) }

// ints returns a length-n view of the pooled buffer.
func (b *buf) ints(n int) []int {
	if cap(b.s) < n {
		b.s = make([]int, n)
	}
	return b.s[:n]
}

// Sum is the compliant shape: get, use, put, return a scalar.
func Sum(n int) int {
	b := getBuf()
	s := b.ints(n)
	t := 0
	for i := range s {
		t += s[i]
	}
	putBuf(b)
	return t
}

// BadReturn leaks pooled memory across the package boundary.
func BadReturn(n int) []int {
	b := getBuf()
	return b.ints(n) // want `pooled memory returned from exported BadReturn`
}

type holder struct{ s []int }

// BadStore parks pooled memory in a field that outlives the call.
func BadStore(h *holder, n int) {
	b := getBuf()
	h.s = b.ints(n) // want `pooled memory stored in field s`
	putBuf(b)
}

// BadGo hands pooled memory to a goroutine that may outlive the Put.
func BadGo(n int) {
	b := getBuf()
	go func() {
		_ = b.ints(n) // want `pooled memory "b" captured by goroutine`
	}()
	putBuf(b)
}

// BadUseAfterPut touches a derived view after the buffer went back.
func BadUseAfterPut(n int) int {
	b := getBuf()
	s := b.ints(n)
	putBuf(b)
	return s[0] // want `use of pooled memory "s" after it was returned with Put`
}

// table is a struct that carries pooled memory from an unexported
// constructor to an explicit release, as the grammar's pooled runner is
// handed back by its release method.
type table struct {
	rows []int
	b    *buf
}

// newTable is unexported, so returning pooled memory classifies it as a
// getter instead of flagging it; its callers are tracked in turn.
func newTable(n int) table {
	b := getBuf()
	return table{rows: b.ints(n), b: b}
}

// release returns the table's buffer to the pool, making it a putter for
// its receiver.
func (t table) release() { putBuf(t.b) }

// GoodTable releases only after the last read.
func GoodTable(n int) int {
	t := newTable(n)
	v := t.rows[0]
	t.release()
	return v
}

// BadTable reads the table after releasing it.
func BadTable(n int) int {
	t := newTable(n)
	t.release()
	return t.rows[0] // want `use of pooled memory "t" after it was returned with Put`
}

// Reacquired shows that a fresh Get clears the earlier Put.
func Reacquired(n int) int {
	b := getBuf()
	putBuf(b)
	b = getBuf()
	s := b.ints(n)
	v := s[0]
	putBuf(b)
	return v
}
