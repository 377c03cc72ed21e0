// Package nesting checks that an instance's named regions nest properly,
// the assertion every domain's fixture test makes. It imports only region,
// so the internal tests of grammar and bibtex can use it where testutil,
// which imports them, cannot.
package nesting

import (
	"fmt"

	"qof/internal/region"
)

// Check reports two regions of sets that partially overlap, or an empty
// region where two regions touch (it lies inside both), by one stack pass
// over their union in set order; then a region whose direct containers by
// region.DirectPairs are not its one parent in the forest that pass built.
func Check(sets []region.Set) error {
	var all []region.Region
	for _, s := range sets {
		all = append(all, s.Regions()...)
	}
	parent := map[region.Region]region.Region{}
	var stack []region.Region
	touch := int64(-1 << 32) // where a region was last popped by one starting at its End
	for _, t := range region.FromRegions(all).Regions() {
		for ; len(stack) > 0 && !stack[len(stack)-1].StrictlyIncludes(t); stack = stack[:len(stack)-1] {
			if top := stack[len(stack)-1]; top.End > t.Start {
				return fmt.Errorf("%v and %v partially overlap", top, t)
			} else if top.End == t.Start {
				touch = int64(t.Start)
			}
		}
		if t.Start == t.End && int64(t.Start) == touch {
			return fmt.Errorf("%v lies where two regions touch, inside both", t)
		}
		if len(stack) > 0 {
			parent[t] = stack[len(stack)-1]
		}
		stack = append(stack, t)
	}
	found := map[region.Region]bool{} // whether each region's direct containers so far are its parent
	if err := region.DirectPairs(sets, nil, func(_, _ int, r, s region.Region) bool {
		found[s] = parent[s] == r
		return found[s]
	}); err != nil {
		return err
	}
	for s, p := range parent {
		if !found[s] {
			return fmt.Errorf("the sweep does not put %v directly inside %v alone", s, p)
		}
	}
	if len(found) != len(parent) {
		return fmt.Errorf("the sweep puts a region with no parent directly inside another")
	}
	return nil
}
