// Package db implements the object-database substrate the paper assumes
// (it used the O2 system): complex values — strings, tuples, sets — classes
// with extents of objects, path navigation including wildcard paths, and
// value joins. It is deliberately small: the paper relies only on object
// construction, attribute navigation, selection and join, and this package
// provides exactly that surface for the query engine and the full-scan
// baseline.
package db

import (
	"fmt"
	"sort"
	"strings"
)

// Kind discriminates value shapes.
type Kind int

// Value kinds.
const (
	KindString Kind = iota
	KindTuple
	KindSet
)

// Value is a complex database value: a string, a tuple of named attributes,
// or a set of values.
type Value interface {
	Kind() Kind
	// String renders the value in a stable literal form.
	String() string
}

// String is an atomic string value.
type String string

// Kind returns KindString.
func (String) Kind() Kind { return KindString }

func (s String) String() string { return fmt.Sprintf("%q", string(s)) }

// Tuple is an ordered collection of named attributes. Schema tuples have at
// most a dozen attributes, so lookup is a linear scan over one slice: no
// hashing, and one allocation per tuple besides the header.
type Tuple struct {
	attrs []attr
}

type attr struct {
	name  string
	value Value
}

// NewTuple creates an empty tuple with room for n attributes; Put grows it
// past that.
func NewTuple(n int) *Tuple {
	if n == 0 {
		return &Tuple{}
	}
	return &Tuple{attrs: make([]attr, 0, n)}
}

// Kind returns KindTuple.
func (*Tuple) Kind() Kind { return KindTuple }

// Put sets an attribute, keeping first-set order for rendering. It returns
// the tuple for chaining.
func (t *Tuple) Put(name string, v Value) *Tuple {
	for i := range t.attrs {
		if t.attrs[i].name == name {
			t.attrs[i].value = v
			return t
		}
	}
	t.attrs = append(t.attrs, attr{name, v})
	return t
}

// Get returns the attribute value and whether it exists.
func (t *Tuple) Get(name string) (Value, bool) {
	for i := range t.attrs {
		if t.attrs[i].name == name {
			return t.attrs[i].value, true
		}
	}
	return nil, false
}

// Attrs returns a copy of the attribute names in insertion order.
func (t *Tuple) Attrs() []string {
	out := make([]string, len(t.attrs))
	for i := range t.attrs {
		out[i] = t.attrs[i].name
	}
	return out
}

// Len reports the number of attributes.
func (t *Tuple) Len() int { return len(t.attrs) }

func (t *Tuple) String() string {
	var sb strings.Builder
	sb.WriteString("tuple(")
	for i, a := range t.attrs {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(a.name)
		sb.WriteString(": ")
		sb.WriteString(a.value.String())
	}
	sb.WriteString(")")
	return sb.String()
}

// Set is a collection of values. Sets preserve insertion order (they behave
// as the paper's set- or list-valued attributes).
type Set struct {
	elems []Value
}

// NewSet creates a set with the given elements.
func NewSet(elems ...Value) *Set { return &Set{elems: elems} }

// Kind returns KindSet.
func (*Set) Kind() Kind { return KindSet }

// Add appends an element.
func (s *Set) Add(v Value) { s.elems = append(s.elems, v) }

// Elems returns the elements. Callers must not modify the slice.
func (s *Set) Elems() []Value { return s.elems }

// Len reports the number of elements.
func (s *Set) Len() int { return len(s.elems) }

func (s *Set) String() string {
	parts := make([]string, len(s.elems))
	for i, e := range s.elems {
		parts[i] = e.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Equal reports deep value equality. Set equality is order-insensitive.
func Equal(a, b Value) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind() != b.Kind() {
		return false
	}
	switch a := a.(type) {
	case String:
		return a == b.(String)
	case *Tuple:
		bt := b.(*Tuple)
		if a.Len() != bt.Len() {
			return false
		}
		for _, at := range a.attrs {
			bv, ok := bt.Get(at.name)
			if !ok || !Equal(at.value, bv) {
				return false
			}
		}
		return true
	case *Set:
		bs := b.(*Set)
		if a.Len() != bs.Len() {
			return false
		}
		// Order-insensitive comparison via canonical rendering.
		ka := make([]string, a.Len())
		kb := make([]string, bs.Len())
		for i, e := range a.elems {
			ka[i] = e.String()
		}
		for i, e := range bs.elems {
			kb[i] = e.String()
		}
		sort.Strings(ka)
		sort.Strings(kb)
		for i := range ka {
			if ka[i] != kb[i] {
				return false
			}
		}
		return true
	}
	return false
}

// Strings flattens a value into the atomic strings it contains, depth-first.
// A leaf attribute compare ("= w") matches when one of these equals w.
func Strings(v Value) []string {
	var out []string
	anyLeaf(v, func(s string) bool {
		out = append(out, s)
		return false
	})
	return out
}

// anyLeaf calls pred on the atomic strings of v, depth-first, and reports
// whether one satisfied it; it stops at the first that does.
func anyLeaf(v Value, pred func(string) bool) bool {
	switch v := v.(type) {
	case String:
		return pred(string(v))
	case *Tuple:
		for i := range v.attrs {
			if anyLeaf(v.attrs[i].value, pred) {
				return true
			}
		}
	case *Set:
		for _, e := range v.elems {
			if anyLeaf(e, pred) {
				return true
			}
		}
	}
	return false
}
