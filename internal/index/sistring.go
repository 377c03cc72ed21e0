package index

// PAT's sistring array orders word-start positions by the text that follows
// them. Sorting Go string suffixes directly degenerates to O(n² log n) byte
// comparisons on repetitive documents, where every comparison scans a long
// shared prefix. Instead, the byte-level suffixes of the document are ranked
// with Manber–Myers prefix doubling — O(n log n) via counting sorts — and
// the tokens are ordered by the rank at their start position, making each
// sort comparison O(1).
//
// The standard library's index/suffixarray builds an equivalent structure
// (and is still used for substring search) but exposes neither the sorted
// order nor ranks, so the ranks are computed here. All working arrays are
// int32: document offsets fit comfortably, and halving the memory traffic
// matters — the counting sorts are bandwidth-bound.

// suffixRanksAt returns rank[i] = the position of suffix s[i:] in the sorted
// order of all suffixes of s. When starts is non-empty, it may stop doubling
// as soon as the ranks at those offsets are pairwise distinct. Ranks at
// other offsets are then only correct up to the resolved prefix length;
// relative order among the starts is exact. The sistring build passes token
// starts here, which on natural text converges a few rounds before every
// interior position is resolved.
func suffixRanksAt(s string, starts []uint32) []int32 {
	n := len(s)
	if n == 0 {
		return nil
	}
	rank := make([]int32, n)
	for i := 0; i < n; i++ {
		rank[i] = int32(s[i]) + 1 // rank 0 is reserved for "past the end"
	}
	sa := make([]int32, n)  // suffix offsets, sorted by current rank pair
	sa2 := make([]int32, n) // offsets pre-sorted by the pair's second rank
	tmp := make([]int32, n)
	top := max(n+2, 258) // counting-sort domain: byte ranks, then [1, n]
	cnt := make([]int32, top)
	// countingSort stably sorts the offsets in src by rank into sa.
	countingSort := func(src []int32) {
		for i := range cnt {
			cnt[i] = 0
		}
		for i := 0; i < n; i++ {
			cnt[rank[i]]++
		}
		for i := 1; i < top; i++ {
			cnt[i] += cnt[i-1]
		}
		for i := n - 1; i >= 0; i-- {
			j := src[i]
			cnt[rank[j]]--
			sa[cnt[rank[j]]] = j
		}
	}
	// seen stamps the round each class was last observed at a start
	// offset, detecting duplicate classes without re-zeroing per round.
	var seen []int32
	if len(starts) > 0 {
		seen = make([]int32, n+1)
	}
	distinctAtStarts := func(round int32) bool {
		if seen == nil {
			return false
		}
		for _, p := range starts {
			r := rank[p]
			if seen[r] == round {
				return false
			}
			seen[r] = round
		}
		return true
	}
	for i := 0; i < n; i++ {
		sa2[i] = int32(i)
	}
	countingSort(sa2)
	for k, round := 1, int32(1); ; k, round = k*2, round+1 {
		// Order by the second key rank[i+k] (an empty suffix sorts first)
		// by shifting the previous round's order, then stable counting
		// sort by the first key.
		p := 0
		for i := n - k; i < n; i++ {
			sa2[p] = int32(i)
			p++
		}
		for _, i := range sa {
			if int(i) >= k {
				sa2[p] = i - int32(k)
				p++
			}
		}
		countingSort(sa2)
		// Re-rank: adjacent suffixes share a rank iff both keys match.
		second := func(i int32) int32 {
			if int(i)+k < n {
				return rank[int(i)+k]
			}
			return 0
		}
		tmp[sa[0]] = 1
		classes := 1
		for i := 1; i < n; i++ {
			a, b := sa[i-1], sa[i]
			if rank[a] == rank[b] && second(a) == second(b) {
				tmp[b] = tmp[a]
			} else {
				tmp[b] = tmp[a] + 1
				classes++
			}
		}
		copy(rank, tmp)
		if classes == n || distinctAtStarts(round) {
			break
		}
	}
	for i := 0; i < n; i++ {
		rank[i]--
	}
	return rank
}
