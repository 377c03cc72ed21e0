package grammar

import (
	"fmt"
	"strings"
)

// Node is a parse-tree node. Non-terminal nodes record which production
// matched and their non-literal children; terminal nodes are leaves. Every
// node carries the half-open byte region [Start, End) it matched, which is
// what the region indices are extracted from.
type Node struct {
	Sym   string // non-terminal name, or terminal class for leaves
	Term  bool   // true for terminal leaves
	Start int
	End   int
	Prod  *Production // matched production (nil for terminals)
	Kids  []*Node     // non-literal children in RHS order; Rep children are inlined

	// nts records, on a node the parser built, that some non-terminal child
	// matched. Under a read set Kids holds only the children read, and
	// whether the node's natural value is a tuple or a string depends on
	// all of them.
	nts bool
}

// Text returns the matched text given the full source.
func (n *Node) Text(src string) string { return src[n.Start:n.End] }

// Find returns the descendants (including n itself) with the given
// non-terminal or terminal symbol, in document order.
func (n *Node) Find(sym string) []*Node {
	var out []*Node
	n.Walk(func(m *Node) bool {
		if m.Sym == sym {
			out = append(out, m)
		}
		return true
	})
	return out
}

// Walk visits n and its descendants in document order (pre-order). The
// visitor returns false to prune a subtree.
func (n *Node) Walk(visit func(*Node) bool) {
	if !visit(n) {
		return
	}
	for _, k := range n.Kids {
		k.Walk(visit)
	}
}

// Dump renders the subtree as an indented outline with regions — the form
// used to reproduce the paper's parse-tree figures (Figures 2 and 3). When
// src is non-empty, terminal leaves include their matched text.
func (n *Node) Dump(src string) string {
	var sb strings.Builder
	n.dump(&sb, src, 0)
	return sb.String()
}

func (n *Node) dump(sb *strings.Builder, src string, depth int) {
	sb.WriteString(strings.Repeat("  ", depth))
	if n.Term {
		fmt.Fprintf(sb, "<%s> [%d,%d)", n.Sym, n.Start, n.End)
		if src != "" {
			fmt.Fprintf(sb, " %q", n.Text(src))
		}
	} else {
		fmt.Fprintf(sb, "%s [%d,%d)", n.Sym, n.Start, n.End)
	}
	sb.WriteByte('\n')
	for _, k := range n.Kids {
		k.dump(sb, src, depth+1)
	}
}
