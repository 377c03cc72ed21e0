package cfg

// A generic worklist dataflow solver over a CFG: meet-over-paths
// approximated by a fixpoint, forward along the edges, with widening applied
// at loop heads so lattices of unbounded height (counters) still terminate.
//
// The state type S is supplied by the analysis along with the lattice
// operations. States must be treated as immutable values: Transfer and
// Merge return fresh states rather than mutating their inputs, because the
// solver retains states across iterations.

// Flow is one dataflow problem: the lattice and transfer function.
type Flow[S any] interface {
	// Bottom is the state of a block no path has reached yet; it is the
	// identity of Merge.
	Bottom() S

	// Boundary is the state at the graph boundary: Entry's input.
	Boundary() S

	// Transfer pushes a state through a block's nodes in execution order.
	Transfer(b *Block, s S) S

	// Merge joins two states where paths meet. It must be monotone,
	// commutative, and have Bottom as identity.
	Merge(a, b S) S

	// Equal reports whether two states coincide (fixpoint detection).
	Equal(a, b S) bool

	// Widen accelerates convergence at loop heads: called with the
	// previous and the newly merged state once a head has been revisited
	// often enough, it must return an upper bound of both. Lattices of
	// finite height can simply return merged.
	Widen(prev, merged S) S
}

// widenAfter is how many times a loop head is revisited before the solver
// starts widening its input state.
const widenAfter = 3

// Result holds the solved states per block.
type Result[S any] struct {
	// In is the state entering each block, before its first node.
	In map[*Block]S
	// Out is Transfer applied to In — the state leaving the block.
	Out map[*Block]S
}

// Solve runs the worklist algorithm forward to fixpoint and returns the
// per-block states. Unreachable blocks keep Bottom.
func Solve[S any](g *CFG, f Flow[S]) *Result[S] {
	res := &Result[S]{In: make(map[*Block]S), Out: make(map[*Block]S)}
	for _, b := range g.Blocks {
		res.In[b] = f.Bottom()
		res.Out[b] = f.Bottom()
	}
	start := g.Entry
	res.In[start] = f.Boundary()

	visits := make(map[*Block]int)
	queue := []*Block{start}
	queued := map[*Block]bool{start: true}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		queued[b] = false

		out := f.Transfer(b, res.In[b])
		res.Out[b] = out
		for _, s := range b.Succs {
			merged := f.Merge(res.In[s], out)
			if s.Head {
				visits[s]++
				if visits[s] > widenAfter {
					merged = f.Widen(res.In[s], merged)
				}
			}
			if f.Equal(merged, res.In[s]) {
				continue
			}
			res.In[s] = merged
			if !queued[s] {
				queued[s] = true
				queue = append(queue, s)
			}
		}
	}
	return res
}
