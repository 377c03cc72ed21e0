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
func BuildValue(n *Node, src string) db.Value {
	if n.Term {
		return db.String(n.Text(src))
	}
	if n.Prod != nil && n.Prod.Action != nil {
		return n.Prod.Action(childValues(n, src), n.Text(src))
	}
	return naturalValue(n, src)
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
			set, k = repSet(n.Kids, k, e.Name, src)
			out = append(out, set)
		}
	}
	return out
}

// repSet builds the set of the run of sym children starting at kids[k] — a
// repetition inlines its matches consecutively — and returns the index
// after the run.
func repSet(kids []*Node, k int, sym, src string) (*db.Set, int) {
	end := k
	for end < len(kids) && kids[end].Sym == sym && !kids[end].Term {
		end++
	}
	elems := make([]db.Value, end-k)
	for i := range elems {
		elems[i] = BuildValue(kids[k+i], src)
	}
	return db.NewSet(elems...), end
}

func naturalValue(n *Node, src string) db.Value {
	hasNT := false
	for _, k := range n.Kids {
		if !k.Term {
			hasNT = true
			break
		}
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
	t := db.NewTuple(shape.attrs)
	for k := 0; k < len(n.Kids); {
		kid := n.Kids[k]
		switch {
		case kid.Term:
			k++
		case shape.isRep(kid.Sym):
			var set *db.Set
			set, k = repSet(n.Kids, k, kid.Sym, src)
			t.Put(kid.Sym, set)
		default:
			v := BuildValue(kid, src)
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
		if _, ok := t.Get(name); !ok {
			t.Put(name, db.NewSet())
		}
	}
	return t
}
