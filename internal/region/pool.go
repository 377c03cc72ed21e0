package region

import "sync"

// The inclusion kernels need integer scratch (range-minimum tables, prefix
// maxima, over region ends and so int32) proportional to the operand sizes.
// Under concurrent query serving those buffers dominated the allocation
// profile, so they are recycled through a pool instead of allocated per
// call.

// intBuf is a pooled integer scratch buffer. Kernels acquire one with
// getIntBuf, slice it with ints, and return it with putIntBuf.
type intBuf struct{ s []int32 }

var intPool = sync.Pool{New: func() any { return new(intBuf) }}

func getIntBuf() *intBuf  { return intPool.Get().(*intBuf) }
func putIntBuf(b *intBuf) { intPool.Put(b) }

// ints returns a length-n view of the buffer, growing it when needed.
// Contents are unspecified; callers must overwrite before reading.
func (b *intBuf) ints(n int) []int32 {
	if cap(b.s) < n {
		b.s = make([]int32, n)
	}
	return b.s[:n]
}

// trimmed wraps out, a selection of parent's regions in set order, as a Set,
// copying to a right-sized slice when the capacity hint left most of it
// unused, so long-lived results (cached sets, instance extents) don't pin
// oversized backing arrays.
func trimmed(parent Set, out []Region) Set {
	if len(out) == 0 {
		return Empty
	}
	if cap(out) >= 4*len(out) {
		exact := make([]Region, len(out))
		copy(exact, out)
		out = exact
	}
	return subsetOf(parent, out)
}

// appendRun appends run to out, at least doubling the capacity when it has
// to grow: the copies made on the way to an answer of n regions stay under
// 2n, where append's 1.25x steps would make 5n of them. It is for kernels
// with no bound on their answer better than the big operand.
func appendRun(out, run []Region) []Region {
	if need := len(out) + len(run); need > cap(out) {
		grown := make([]Region, len(out), max(2*cap(out), need))
		copy(grown, out)
		out = grown
	}
	return append(out, run...)
}
