package region

// Cooperative cancellation for the region kernels. The inclusion kernels and
// selection filters are the only loops in the engine whose run time grows
// with the operand sizes rather than the query size, so they are where a
// deadline must be able to take effect mid-evaluation. Each kernel takes a
// Checker that its loop polls every pollStride iterations; a non-nil return
// aborts the kernel with that error and the partial output is discarded.
// The older kernels also have a plain variant that delegates with a nil
// checker, so uncancellable callers pay only a nil comparison per stride.

// Checker is polled periodically by long-running kernels. It returns nil to
// continue or the error to abort with (typically ctx.Err()). Checkers must
// be cheap: they run on the kernel's hot path, though only once per
// pollStride iterations.
type Checker func() error

// pollStride is how many loop iterations a kernel runs between Checker
// polls. It is a power of two so the position test compiles to a mask, and
// small enough that the merges and probes, whose iterations cost O(1) or
// one galloping search, keep the poll latency well under the 50ms budget
// the facade documents. The exception is the fallback of ⊃d/⊂d where
// regions do not nest, which polls as it scans the regions sorting before s.
const pollStride = 1024

// poll invokes check every pollStride-th iteration i (and on i = 0, which
// costs nothing extra and bounds the latency of already-expired deadlines).
func poll(check Checker, i int) error {
	if check == nil || i&(pollStride-1) != 0 {
		return nil
	}
	return check()
}

// FilterCtl is Filter with cancellation: keep runs per region, check is
// polled every pollStride regions.
func (s Set) FilterCtl(keep func(Region) bool, check Checker) (Set, error) {
	if s.IsEmpty() {
		return Empty, nil
	}
	out := make([]Region, 0, len(s.regions))
	for i, r := range s.regions {
		if err := poll(check, i); err != nil {
			return Empty, err
		}
		if keep(r) {
			out = append(out, r)
		}
	}
	return trimmed(s, out), nil
}

// Pick returns the subset of s at the given indexes, which must ascend
// strictly: the answer of a selection that was decided on indexes (a run of
// a value order sorted back into set order).
func (s Set) Pick(idx []int32, check Checker) (Set, error) {
	if len(idx) == 0 {
		return Empty, nil
	}
	out := make([]Region, len(idx))
	for i, ix := range idx {
		if err := poll(check, i); err != nil {
			return Empty, err
		}
		if i > 0 && ix <= idx[i-1] {
			panic("region: Pick indexes do not ascend")
		}
		out[i] = s.regions[ix]
	}
	return subsetOf(s, out), nil
}
