package grammar

import (
	"qof/internal/db"
)

// BuildValue computes the database image of a parse tree (the paper's $$
// values). Productions with a custom Action use it; otherwise the natural
// construction of Section 4.2 applies:
//
//   - a repetition child contributes a set value under the child's
//     non-terminal name,
//   - non-terminal children make the node a tuple whose attribute names are
//     the non-terminal names,
//   - a node with only terminal children becomes the string they matched.
//
// src must be the full document content the tree was parsed from.
func BuildValue(n *Node, src string) db.Value { return buildValue(n, src, everything) }

// buildValue builds the part of n's image that need reads. Under a need
// that names attributes, n is the tree ParseValue kept for it: a tuple of
// those attributes alone, whatever else the production matched. CompileReads
// reads an Action production's subtree whole, so an action always receives
// every child value.
func buildValue(n *Node, src string, need *ReadSet) db.Value {
	if n.Term {
		return db.String(n.Text(src))
	}
	if need.all && n.Prod != nil && n.Prod.Action != nil {
		return n.Prod.Action(childValues(n, src), n.Text(src))
	}
	return naturalValue(n, src, need)
}

// childValues evaluates the non-literal children in RHS order, folding
// repetition children into one set per the Rep element.
func childValues(n *Node, src string) []db.Value {
	out := make([]db.Value, 0, len(n.Kids))
	k := 0
	for _, e := range n.Prod.RHS {
		switch e.Kind {
		case ElemTerm, ElemNT:
			if k < len(n.Kids) {
				out = append(out, BuildValue(n.Kids[k], src))
				k++
			}
		case ElemRep:
			var set *db.Set
			set, k = repSet(n.Kids, k, e.Name, src, everything)
			out = append(out, set)
		}
	}
	return out
}

// repSet builds the set of the run of sym children starting at kids[k] — a
// repetition inlines its matches consecutively — and returns the index
// after the run.
func repSet(kids []*Node, k int, sym, src string, need *ReadSet) (*db.Set, int) {
	end := k
	for end < len(kids) && kids[end].Sym == sym && !kids[end].Term {
		end++
	}
	elems := make([]db.Value, end-k)
	for i := range elems {
		elems[i] = buildValue(kids[k+i], src, need)
	}
	return db.NewSet(elems...), end
}

func naturalValue(n *Node, src string, need *ReadSet) db.Value {
	hasNT := n.nts
	for _, k := range n.Kids {
		if !k.Term {
			hasNT = true
			break
		}
	}
	if !hasNT && !need.all {
		// A string in the full value, and the path goes on to name an
		// attribute: it finds none in a string, and none here.
		return db.NewTuple(0)
	}
	if !hasNT {
		// Terminal-only production: the matched terminal text. With
		// several terminals, concatenate their exact matches.
		if len(n.Kids) == 1 {
			return db.String(n.Kids[0].Text(src))
		}
		s := ""
		for _, k := range n.Kids {
			s += k.Text(src)
		}
		return db.String(s)
	}
	shape := n.Prod.natural()
	attrs := shape.attrs
	if !need.all {
		attrs = len(need.kids)
	}
	t := db.NewTuple(attrs)
	for k := 0; k < len(n.Kids); {
		kid := n.Kids[k]
		switch {
		case kid.Term:
			k++
		case shape.isRep(kid.Sym):
			var set *db.Set
			set, k = repSet(n.Kids, k, kid.Sym, src, need.named(kid.Sym))
			t.Put(kid.Sym, set)
		default:
			v := buildValue(kid, src, need.named(kid.Sym))
			k++
			// Validate forbids a non-terminal twice in one right-hand side,
			// so only a hand-built tree repeats a symbol outside a
			// repetition; its values accumulate into a set.
			switch prev, _ := t.Get(kid.Sym); prev := prev.(type) {
			case nil:
				t.Put(kid.Sym, v)
			case *db.Set:
				prev.Add(v)
			default:
				t.Put(kid.Sym, db.NewSet(prev, v))
			}
		}
	}
	// Repetitions that matched zero elements still contribute empty sets.
	for _, name := range shape.reps {
		if _, ok := t.Get(name); !ok && need.named(name) != nil {
			t.Put(name, db.NewSet())
		}
	}
	return t
}
