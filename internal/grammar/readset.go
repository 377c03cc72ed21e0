package grammar

import (
	"fmt"
	"slices"
	"strings"

	"qof/internal/db"
)

// ReadSet is what a query reads of a non-terminal's database image: the
// union of its path expressions, compiled once per plan into a trie over
// attribute names. ParseValue builds the nodes and values on the trie and
// runs every production off it recognise-only, so a candidate costs the
// attributes the query names and nothing else (projection pushed down into
// the parser). Navigating any of the compiled paths over the pruned value
// reaches exactly what it reaches over the full one.
//
// A node either reads its whole subtree (all) or names the attributes read
// beneath it. Need is carried down the descent, not looked up by symbol:
// Name under Authors and Name under Editors are different trie nodes.
//
// A nil *ReadSet means "everything" wherever one is accepted. A ReadSet is
// immutable once CompileReads returns it and belongs to the grammar that
// compiled it.
type ReadSet struct {
	nt   string // root only: the non-terminal whose values the set describes
	all  bool
	kids []readKid // by name
	text string    // root only: the canonical rendering, see String
}

type readKid struct {
	name string
	sym  int // the name's symbol id in the grammar's program
	sub  *ReadSet
}

// everything is the read set a nil *ReadSet stands for.
var everything = &ReadSet{all: true, text: "*"}

// maxReadNodes bounds a compiled trie. A chain of ?X steps over a recursive
// schema names children^steps attribute paths; past the bound the read set
// widens to everything, which is always sound.
const maxReadNodes = 256

// CompileReads compiles the paths a query navigates from values of nt into a
// read set. Per step: an attribute names that child; ?X (Any) every child
// one level down; *X (Star) the whole subtree, because it may stop
// anywhere. A path that ends reads the whole subtree it ends on — a
// comparison visits every leaf beneath what its path reaches — and so does
// a non-terminal with an Action production, whose action receives all
// child values. Attributes the schema does not have under nt are dropped:
// navigation finds nothing there in the full value either.
func (g *Grammar) CompileReads(nt string, paths [][]db.Step) (*ReadSet, error) {
	prog, err := g.program()
	if err != nil {
		return nil, err
	}
	if _, ok := prog.ids[nt]; !ok {
		return nil, fmt.Errorf("grammar: unknown non-terminal %q", nt)
	}
	c := readCompiler{g: g, prog: prog, attrs: make(map[string][]string)}
	root := &ReadSet{nt: nt}
	for _, p := range paths {
		c.add(root, nt, p)
	}
	if c.nodes > maxReadNodes {
		root.all, root.kids = true, nil
	}
	root.prune()
	var parts []string
	root.paths("", &parts)
	root.text = strings.Join(parts, ",")
	return root, nil
}

type readCompiler struct {
	g     *Grammar
	prog  *program
	nodes int
	attrs map[string][]string // non-terminal -> its attribute names
}

// add extends the trie at n, which describes values of nt, by one path.
func (c *readCompiler) add(n *ReadSet, nt string, steps []db.Step) {
	if n.all || c.nodes > maxReadNodes {
		return
	}
	if len(steps) == 0 || steps[0].Star || c.hasAction(nt) {
		n.all, n.kids = true, nil
		return
	}
	for _, name := range c.attributes(nt) {
		if steps[0].Any || steps[0].Attr == name {
			c.add(c.kid(n, name), name, steps[1:])
		}
	}
}

// attributes lists the attribute names a value of nt can have: the
// non-terminal and repetition elements of its productions, each once.
func (c *readCompiler) attributes(nt string) []string {
	if names, ok := c.attrs[nt]; ok {
		return names
	}
	names := []string{}
	for _, p := range c.g.prods[nt] {
		for _, e := range p.RHS {
			if (e.Kind == ElemNT || e.Kind == ElemRep) && !slices.Contains(names, e.Name) {
				names = append(names, e.Name)
			}
		}
	}
	c.attrs[nt] = names
	return names
}

func (c *readCompiler) hasAction(nt string) bool {
	for _, p := range c.g.prods[nt] {
		if p.Action != nil {
			return true
		}
	}
	return false
}

func (c *readCompiler) kid(n *ReadSet, name string) *ReadSet {
	if sub := n.named(name); sub != nil {
		return sub
	}
	c.nodes++
	sub := &ReadSet{}
	n.kids = append(n.kids, readKid{name: name, sym: c.prog.ids[name], sub: sub})
	return sub
}

// prune drops the branches nothing is read beneath (a path that left the
// schema part-way) and puts the rest in name order, so equal read sets
// render equally whatever order their paths came in.
func (n *ReadSet) prune() {
	kept := n.kids[:0]
	for _, k := range n.kids {
		k.sub.prune()
		if k.sub.all || len(k.sub.kids) > 0 {
			kept = append(kept, k)
		}
	}
	n.kids = kept
	slices.SortFunc(n.kids, func(a, b readKid) int { return strings.Compare(a.name, b.name) })
}

// paths appends the dotted attribute path of every whole-subtree node.
func (n *ReadSet) paths(prefix string, out *[]string) {
	if n.all {
		if prefix == "" {
			prefix = "*"
		}
		*out = append(*out, prefix)
		return
	}
	for _, k := range n.kids {
		p := k.name
		if prefix != "" {
			p = prefix + "." + k.name
		}
		k.sub.paths(p, out)
	}
}

// Everything reports that the whole value is read; true of a nil set.
func (n *ReadSet) Everything() bool { return n == nil || n.all }

// Empty reports that nothing is read: no path of the query enters the
// value, so there is nothing to build and nothing a filter could find.
func (n *ReadSet) Empty() bool { return n != nil && !n.all && len(n.kids) == 0 }

// String renders the set canonically: the attribute paths read whole, in
// name order, comma-separated; "*" for everything, "" for nothing. Equal
// strings mean equal pruned values, which is what lets the engine share
// parsed values between queries.
func (n *ReadSet) String() string {
	if n == nil {
		return everything.text
	}
	return n.text
}

// Describe renders the set for EXPLAIN with every path rooted at the range
// variable: "r.Keywords, r.Title".
func (n *ReadSet) Describe(rangeVar string) string {
	var parts []string
	n.paths("", &parts)
	for i, p := range parts {
		parts[i] = rangeVar + "." + p
	}
	return strings.Join(parts, ", ")
}

// named returns the need of the attribute called name: the node itself when
// the whole subtree is read, nil when the attribute is not read.
func (n *ReadSet) named(name string) *ReadSet {
	if n.all {
		return n
	}
	for i := range n.kids {
		if n.kids[i].name == name {
			return n.kids[i].sub
		}
	}
	return nil
}

// child is named by symbol id, for the parser; a nil receiver (a quiet
// descent) has no children.
func (n *ReadSet) child(sym int) *ReadSet {
	if n == nil || n.all {
		return n
	}
	for i := range n.kids {
		if n.kids[i].sym == sym {
			return n.kids[i].sub
		}
	}
	return nil
}
