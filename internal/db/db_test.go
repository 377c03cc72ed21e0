package db

import (
	"reflect"
	"slices"
	"testing"
)

// reference builds the tuple for one bibliographic reference with the given
// author and editor last names.
func reference(key string, authors, editors []string) *Tuple {
	mkNames := func(lasts []string) *Set {
		s := NewSet()
		for _, l := range lasts {
			s.Add(NewTuple(0).
				Put("First_Name", String("X")).
				Put("Last_Name", String(l)))
		}
		return s
	}
	return NewTuple(0).
		Put("Key", String(key)).
		Put("Authors", mkNames(authors)).
		Put("Editors", mkNames(editors))
}

func TestTupleBasics(t *testing.T) {
	tp := NewTuple(0).Put("A", String("x")).Put("B", String("y"))
	if tp.Kind() != KindTuple || tp.Len() != 2 {
		t.Fatal("tuple shape")
	}
	if got := tp.Attrs(); !reflect.DeepEqual(got, []string{"A", "B"}) {
		t.Errorf("Attrs = %v", got)
	}
	v, ok := tp.Get("A")
	if !ok || v.(String) != "x" {
		t.Errorf("Get(A) = %v %v", v, ok)
	}
	if _, ok := tp.Get("C"); ok {
		t.Error("Get(C)")
	}
	tp.Put("A", String("z")) // overwrite keeps order
	if got := tp.Attrs(); !reflect.DeepEqual(got, []string{"A", "B"}) {
		t.Errorf("Attrs after overwrite = %v", got)
	}
	if tp.String() != `tuple(A: "z", B: "y")` {
		t.Errorf("String = %s", tp.String())
	}
}

func TestSetBasics(t *testing.T) {
	s := NewSet(String("a"))
	s.Add(String("b"))
	if s.Kind() != KindSet || s.Len() != 2 {
		t.Fatal("set shape")
	}
	if s.String() != `{"a", "b"}` {
		t.Errorf("String = %s", s.String())
	}
	if String("a").Kind() != KindString {
		t.Error("string kind")
	}
}

func TestEqual(t *testing.T) {
	a := reference("k", []string{"Chang"}, nil)
	b := reference("k", []string{"Chang"}, nil)
	if !Equal(a, b) {
		t.Error("equal tuples")
	}
	c := reference("k", []string{"Corliss"}, nil)
	if Equal(a, c) {
		t.Error("different tuples")
	}
	// Set equality ignores order.
	s1 := NewSet(String("a"), String("b"))
	s2 := NewSet(String("b"), String("a"))
	if !Equal(s1, s2) {
		t.Error("set order")
	}
	if Equal(s1, NewSet(String("a"))) {
		t.Error("set size")
	}
	if Equal(String("a"), s1) {
		t.Error("kind mismatch")
	}
	if !Equal(nil, nil) || Equal(nil, String("a")) {
		t.Error("nil cases")
	}
	// Tuples with same size but different attribute names.
	t1 := NewTuple(0).Put("A", String("x"))
	t2 := NewTuple(0).Put("B", String("x"))
	if Equal(t1, t2) {
		t.Error("attr names")
	}
}

func TestStrings(t *testing.T) {
	r := reference("k", []string{"Chang", "Corliss"}, []string{"Griewank"})
	got := Strings(r)
	want := []string{"k", "X", "Chang", "X", "Corliss", "X", "Griewank"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Strings = %v", got)
	}
	if Strings(nil) != nil {
		t.Error("nil")
	}
}

func TestDatabase(t *testing.T) {
	d := NewDatabase()
	d.DefineClass("References")
	o1 := d.Insert("References", reference("a", []string{"Chang"}, nil))
	o2 := d.Insert("References", reference("b", nil, []string{"Chang"}))
	d.Insert("Other", String("x"))
	if o1.ID == o2.ID {
		t.Error("OIDs must differ")
	}
	if d.Count("References") != 2 || d.Count("Other") != 1 || d.Count("Nope") != 0 {
		t.Error("counts")
	}
	if got := d.Classes(); !reflect.DeepEqual(got, []string{"References", "Other"}) {
		t.Errorf("Classes = %v", got)
	}
	ext := d.Extent("References")
	if len(ext) != 2 || ext[0] != o1 || ext[1] != o2 {
		t.Error("extent")
	}
	if o1.String() == "" || o1.Class != "References" {
		t.Error("object fields")
	}
}

func TestNavigatePlain(t *testing.T) {
	r := reference("k", []string{"Chang", "Corliss"}, []string{"Griewank"})
	got := NavigateStrings(r, PathOf("Authors", "Last_Name"))
	if !reflect.DeepEqual(got, []string{"Chang", "Corliss"}) {
		t.Errorf("authors = %v", got)
	}
	if got := NavigateStrings(r, PathOf("Editors", "Last_Name")); !reflect.DeepEqual(got, []string{"Griewank"}) {
		t.Errorf("editors = %v", got)
	}
	if got := Navigate(r, PathOf("Missing")); got != nil {
		t.Errorf("missing attr = %v", got)
	}
	if got := Navigate(r, PathOf("Key", "Deeper")); got != nil {
		t.Errorf("string navigation = %v", got)
	}
	if got := Navigate(nil, PathOf("A")); got != nil {
		t.Errorf("nil value = %v", got)
	}
	// Empty path returns the value itself.
	if got := Navigate(r, nil); len(got) != 1 || got[0] != Value(r) {
		t.Errorf("empty path = %v", got)
	}
}

func TestNavigateAny(t *testing.T) {
	r := reference("k", []string{"Chang"}, []string{"Griewank"})
	// r.X.Last_Name with exactly one wildcard step: Authors or Editors.
	steps := []Step{{Any: true}, {Attr: "Last_Name"}}
	got := SortedUnique(NavigateStrings(r, steps))
	if !reflect.DeepEqual(got, []string{"Chang", "Griewank"}) {
		t.Errorf("any-step = %v", got)
	}
}

func TestNavigateStar(t *testing.T) {
	r := reference("k", []string{"Chang"}, []string{"Griewank"})
	// r.*X.Last_Name: any path to a Last_Name (the paper's Section 5.3).
	steps := []Step{{Star: true}, {Attr: "Last_Name"}}
	got := SortedUnique(NavigateStrings(r, steps))
	if !reflect.DeepEqual(got, []string{"Chang", "Griewank"}) {
		t.Errorf("star = %v", got)
	}
	// Star can match the empty path.
	if got := Navigate(String("x"), []Step{{Star: true}}); len(got) != 1 {
		t.Errorf("star at leaf = %v", got)
	}
	if !HasLeaf(r, steps, "Chang") || HasLeaf(r, steps, "Nope") {
		t.Error("HasLeaf")
	}
}

func TestStepString(t *testing.T) {
	if (Step{Star: true}).String() != "*" || (Step{Any: true}).String() != "?" || (Step{Attr: "A"}).String() != "A" {
		t.Error("Step.String")
	}
}

func TestSortedUnique(t *testing.T) {
	got := SortedUnique([]string{"b", "a", "b", "a", "c"})
	if !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("SortedUnique = %v", got)
	}
	if got := SortedUnique(nil); len(got) != 0 {
		t.Errorf("nil = %v", got)
	}
}

// TestTupleSemantics pins what the slice-backed Tuple must keep of the
// map-backed one it replaced.
func TestTupleSemantics(t *testing.T) {
	tp := NewTuple(2).Put("A", String("1")).Put("B", String("2")).Put("C", String("3"))
	// Put past the initial capacity, then overwrite in the middle: the
	// order is the order of first Put, the value the last one.
	tp.Put("B", String("two")).Put("A", String("one"))
	if got := tp.Attrs(); !reflect.DeepEqual(got, []string{"A", "B", "C"}) || tp.Len() != 3 {
		t.Errorf("Attrs after overwrites = %v, Len %d", got, tp.Len())
	}
	if tp.String() != `tuple(A: "one", B: "two", C: "3")` {
		t.Errorf("String = %s", tp)
	}
	if v, ok := tp.Get("B"); !ok || v.(String) != "two" {
		t.Errorf("Get(B) = %v %v", v, ok)
	}
	if v, ok := tp.Get("D"); ok || v != nil {
		t.Errorf("Get(D) = %v %v", v, ok)
	}
	// Attrs is a copy: writing to it does not rename attributes.
	names := tp.Attrs()
	names[0] = "Z"
	if _, ok := tp.Get("A"); !ok || tp.Attrs()[0] != "A" {
		t.Error("Attrs exposed the tuple's own storage")
	}
	// Equal ignores attribute order, not names, values or count.
	same := NewTuple(0).Put("C", String("3")).Put("A", String("one")).Put("B", String("two"))
	if !Equal(tp, same) || !Equal(same, tp) {
		t.Error("Equal should ignore attribute order")
	}
	if Equal(tp, NewTuple(0).Put("A", String("one")).Put("B", String("two"))) {
		t.Error("Equal ignored a missing attribute")
	}
	if Equal(tp, NewTuple(0).Put("A", String("one")).Put("B", String("two")).Put("C", String("x"))) {
		t.Error("Equal ignored a differing value")
	}
	// An empty tuple behaves.
	empty := NewTuple(0)
	if empty.Len() != 0 || empty.String() != "tuple()" || len(empty.Attrs()) != 0 || !Equal(empty, NewTuple(4)) {
		t.Error("empty tuple")
	}
	// Navigation order follows attribute order.
	if got := NavigateStrings(tp, []Step{{Any: true}}); !reflect.DeepEqual(got, []string{"one", "two", "3"}) {
		t.Errorf("any-step order = %v", got)
	}
}

func TestAnyStringStopsEarly(t *testing.T) {
	r := reference("k", []string{"Chang", "Corliss"}, []string{"Griewank"})
	var seen []string
	found := AnyString(r, []Step{{Star: true}, {Attr: "Last_Name"}}, func(s string) bool {
		seen = append(seen, s)
		return s == "Corliss"
	})
	if !found || !reflect.DeepEqual(seen, []string{"Chang", "Corliss"}) {
		t.Errorf("found %v after visiting %v", found, seen)
	}
	if AnyString(nil, nil, func(string) bool { return true }) {
		t.Error("nil value")
	}
}

// TestAnyStringManyStars: with two or more stars AnyString skips the
// (value, remaining steps) pairs it has explored. On every path of up to
// four steps over a tree whose attributes A and B nest four deep, the
// strings it shows pred are the distinct strings NavigateStrings (which
// explores every split) reaches, and HasLeaf agrees with them.
func TestAnyStringManyStars(t *testing.T) {
	var tree func(name string, depth int) Value
	tree = func(name string, depth int) Value {
		if depth == 0 {
			return String(name)
		}
		tp := NewTuple(2).Put("A", tree(name+"a", depth-1)).Put("B", tree(name+"b", depth-1))
		if depth%2 == 0 {
			return NewSet(tp, String(name))
		}
		return tp
	}
	root := tree("", 4)
	kinds := []Step{{Star: true}, {Any: true}, {Attr: "A"}, {Attr: "B"}}
	var paths [][]Step
	var grow func(p []Step)
	grow = func(p []Step) {
		paths = append(paths, p)
		if len(p) == 4 {
			return
		}
		for _, k := range kinds {
			grow(append(p[:len(p):len(p)], k))
		}
	}
	grow(nil)
	all := Strings(root)
	for _, p := range paths {
		want := SortedUnique(NavigateStrings(root, p))
		var got []string
		AnyString(root, p, func(s string) bool {
			got = append(got, s)
			return false
		})
		if got = SortedUnique(got); !slices.Equal(got, want) {
			t.Errorf("path %v: AnyString sees %q, NavigateStrings reaches %q", p, got, want)
		}
		for _, w := range all {
			if HasLeaf(root, p, w) != slices.Contains(want, w) {
				t.Errorf("path %v: HasLeaf(%q) disagrees with NavigateStrings' %q", p, w, want)
			}
		}
	}
}
