package db

import (
	"slices"
	"sort"
)

// Step is one component of a path expression. Exactly one field is set:
// Attr navigates a named attribute, Any ("X") navigates exactly one
// arbitrary attribute, and Star ("*X") navigates zero or more arbitrary
// attributes (Section 5.3's extended path expressions).
type Step struct {
	Attr string
	Any  bool
	Star bool
}

func (s Step) String() string {
	switch {
	case s.Star:
		return "*"
	case s.Any:
		return "?"
	default:
		return s.Attr
	}
}

// PathOf builds a plain attribute path.
func PathOf(attrs ...string) []Step {
	steps := make([]Step, len(attrs))
	for i, a := range attrs {
		steps[i] = Step{Attr: a}
	}
	return steps
}

// Navigate evaluates a path expression against a value, with the usual
// object-database semantics: navigating into a set applies the remaining
// path to every element. It returns every value the path reaches.
func Navigate(v Value, steps []Step) []Value {
	var out []Value
	w := walk{visit: func(r Value) bool {
		out = append(out, r)
		return false
	}}
	w.reach(v, steps)
	return out
}

// walk is one path navigation: visit sees every value the path reaches.
// failed, when not nil, holds the (value, remaining steps) pairs from which
// the walk reached nothing that visit accepted. A path with two or more
// stars reaches one value by every split of the descents among its stars,
// which is exponential in the number of stars; skipping a pair already
// explored makes a walk O(values × steps).
type walk struct {
	visit  func(Value) bool
	failed map[failure]struct{}
}

type failure struct {
	v    Value
	left int // len(steps) still to apply
}

// reach calls visit on every value the path reaches from v, in navigation
// order, and reports whether a visit returned true; it stops at the first
// that does.
func (w *walk) reach(v Value, steps []Step) bool {
	if v == nil {
		return false
	}
	if len(steps) == 0 {
		return w.visit(v)
	}
	key := failure{v, len(steps)}
	if _, failed := w.failed[key]; failed {
		return false
	}
	if w.step(v, steps) {
		return true
	}
	if w.failed != nil {
		w.failed[key] = struct{}{}
	}
	return false
}

func (w *walk) step(v Value, steps []Step) bool {
	switch val := v.(type) {
	case *Set:
		for _, e := range val.elems {
			if w.reach(e, steps) {
				return true
			}
		}
	case *Tuple:
		step := steps[0]
		switch {
		case step.Star:
			// Zero steps consumed here, or descend one attribute
			// keeping the star.
			if w.reach(v, steps[1:]) {
				return true
			}
			for i := range val.attrs {
				if w.reach(val.attrs[i].value, steps) {
					return true
				}
			}
		case step.Any:
			for i := range val.attrs {
				if w.reach(val.attrs[i].value, steps[1:]) {
					return true
				}
			}
		default:
			child, ok := val.Get(step.Attr)
			return ok && w.reach(child, steps[1:])
		}
	case String:
		if steps[0].Star {
			// A star may consume zero steps at a leaf.
			return w.reach(v, steps[1:])
		}
	}
	return false
}

// NavigateStrings evaluates the path and flattens the results to their
// atomic strings, the form used by projections. It keeps every string as
// often as the path reaches it, so it does not skip explored pairs.
func NavigateStrings(v Value, steps []Step) []string {
	var out []string
	collect := func(s string) bool {
		out = append(out, s)
		return false
	}
	w := walk{visit: func(r Value) bool { return anyLeaf(r, collect) }}
	w.reach(v, steps)
	return out
}

// AnyString reports whether some atomic string the path reaches satisfies
// pred, stopping at the first that does. It is the allocation-free form of
// NavigateStrings for existential comparisons, and the filters' navigation:
// pred sees every string the path reaches at least once (unless it returns
// true), and a path with several stars costs O(values × steps).
func AnyString(v Value, steps []Step, pred func(string) bool) bool {
	w := walk{visit: func(r Value) bool { return anyLeaf(r, pred) }}
	if i := slices.IndexFunc(steps, isStar); i >= 0 && slices.ContainsFunc(steps[i+1:], isStar) {
		w.failed = make(map[failure]struct{})
	}
	return w.reach(v, steps)
}

func isStar(s Step) bool { return s.Star }

// HasLeaf reports whether the path reaches some atomic string equal to w.
func HasLeaf(v Value, steps []Step, w string) bool {
	return AnyString(v, steps, func(s string) bool { return s == w })
}

// SortedUnique sorts and deduplicates a string slice in place, returning it.
// Shared by join and projection result handling.
func SortedUnique(ss []string) []string {
	sort.Strings(ss)
	w := 0
	for i, s := range ss {
		if i == 0 || s != ss[w-1] {
			ss[w] = s
			w++
		}
	}
	return ss[:w]
}
