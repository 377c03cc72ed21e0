package index

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strings"

	"qof/internal/region"
	"qof/internal/text"
)

// The value order of a named region set is the permutation of the set
// sorted by region text. σ_= and σ_prefix (XSQL's = and STARTS on a
// faithful leaf) both select one contiguous run of it, found by binary
// search: O(log n + matches) where the compare loop is O(n). It is an index
// on region *text*, so it assumes nothing about how regions align with word
// tokens.
//
// Lifetime: the order is built on the first selection that is handed the
// set an instance holds under a name, and lives in that set's memo
// (region.Set.WithMemo, attached by New) — 4 bytes per region, only for
// names some query compares. Each instance New makes holds its own memos,
// so a spliced instance's orders are built again on first use. Sets without
// a memo (every kernel result) are compared region by region.

// valueOrder is the memoized permutation and the document whose text
// ordered it.
type valueOrder struct {
	doc  *text.Document
	perm []int32 // indexes into the set, by (region text, index)
}

// valueOrderOf returns the value order of s, building it if s has a memo
// and no order yet. It returns nil when s has to be compared region by
// region: no memo, another goroutine is building right now, or the memo
// belongs to an index over another document. An aborted build stores
// nothing and returns the checker's error.
func (x *WordIndex) valueOrderOf(s region.Set, check region.Checker) (*valueOrder, error) {
	m := s.Memo()
	if m == nil || s.Len() > math.MaxInt32 {
		return nil, nil
	}
	v, err := m.Fill(func() (any, error) {
		perm, err := x.sortByText(s.Regions(), check)
		if err != nil {
			return nil, err
		}
		return &valueOrder{doc: x.doc, perm: perm}, nil
	})
	if v == nil {
		return nil, err
	}
	if vo := v.(*valueOrder); vo.doc == x.doc {
		return vo, nil
	}
	return nil, nil
}

// sortByText returns the indexes of rs sorted by region text, equal texts
// by index.
func (x *WordIndex) sortByText(rs []region.Region, check region.Checker) ([]int32, error) {
	content := x.doc.Content()
	perm := make([]int32, len(rs))
	for i := 0; i < len(perm); i++ {
		perm[i] = int32(i)
	}
	err := sortCtl(perm, func(a, b int32) int {
		ra, rb := rs[a], rs[b]
		if c := strings.Compare(content[ra.Start:ra.End], content[rb.Start:rb.End]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	}, check)
	if err != nil {
		return nil, err
	}
	return perm, nil
}

// sortPollStride is how many comparisons sortCtl lets pass between polls:
// the region kernels' stride.
const sortPollStride = 1024

// sortCtl sorts idx by compare, polling check every sortPollStride
// comparisons. After an abort the remaining comparisons all answer "equal",
// so the sort winds down at once; the order is then meaningless and the
// checker's error is returned.
func sortCtl(idx []int32, compare func(a, b int32) int, check region.Checker) error {
	if check == nil {
		slices.SortFunc(idx, compare)
		return nil
	}
	var abort error
	n := 0
	slices.SortFunc(idx, func(a, b int32) int {
		if abort != nil {
			return 0
		}
		if n++; n%sortPollStride == 0 {
			if abort = check(); abort != nil {
				return 0
			}
		}
		return compare(a, b)
	})
	return abort
}

// textRun returns the run [lo, hi) of s's value order whose regions have
// text matching c, where match is equality or prefix: of the texts at or
// after c the matching ones come first, so either selection is one run. vo
// is nil when s has no order to read (see valueOrderOf).
func (x *WordIndex) textRun(s region.Set, c string, match func(text, c string) bool, check region.Checker) (vo *valueOrder, lo, hi int, err error) {
	vo, err = x.valueOrderOf(s, check)
	if vo == nil {
		return nil, 0, 0, err
	}
	content, rs := x.doc.Content(), s.Regions()
	textAt := func(i int) string {
		r := rs[vo.perm[i]]
		return content[r.Start:r.End]
	}
	lo = sort.Search(len(vo.perm), func(i int) bool { return textAt(i) >= c })
	hi = lo + sort.Search(len(vo.perm)-lo, func(i int) bool { return !match(textAt(lo+i), c) })
	return vo, lo, hi, nil
}

// selectByText returns the regions of s whose text matches c: a run of the
// value order sorted back into set order, or the compare loop when s has no
// order.
func (x *WordIndex) selectByText(s region.Set, c string, match func(text, c string) bool, check region.Checker) (region.Set, error) {
	vo, lo, hi, err := x.textRun(s, c, match, check)
	if err != nil {
		return region.Empty, err
	}
	if vo == nil {
		content := x.doc.Content()
		return s.FilterCtl(func(r region.Region) bool {
			return match(content[r.Start:r.End], c)
		}, check)
	}
	picked := slices.Clone(vo.perm[lo:hi])
	if err := sortCtl(picked, cmp.Compare[int32], check); err != nil {
		return region.Empty, err
	}
	return s.Pick(picked, check)
}

func textEquals(text, c string) bool { return text == c }

// TextMatches reports how many regions of s have text equal to c — or, with
// prefix set, starting with c — when s has a value order to read that from
// in O(log |s|); ok is false when it has none. A caller that can also
// stream s through a filter uses the count to choose: sorting a long run
// back into set order costs more than the sweep a LIMIT may cut short.
func (x *WordIndex) TextMatches(s region.Set, c string, prefix bool, check region.Checker) (n int, ok bool, err error) {
	match := textEquals
	if prefix {
		match = strings.HasPrefix
	}
	vo, lo, hi, err := x.textRun(s, c, match, check)
	return hi - lo, vo != nil, err
}
