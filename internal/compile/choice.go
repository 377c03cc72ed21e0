package compile

import (
	"strings"

	"qof/internal/index"
	"qof/internal/rig"
)

// maxChoices bounds the indexing choices a catalog remembers; past it (the
// indexing experiments walk through many) the memo starts over.
const maxChoices = 64

// Choice is an indexing choice — which names are indexed, and which of them
// selectively — with what the compiler derives from it alone: the RIG
// projected onto the indexed names (Section 6.1) and the globally indexed
// ones exactness is tested against (Section 6.3) are functions of the schema
// and the choice, never of a file's bytes. A Choice is immutable and resolved
// once per catalog: instances indexing the same names share it, and its plans.
type Choice struct {
	has   map[string]bool
	scope map[string]string // name -> scope, for the selectively indexed
	// blockers are the globally indexed names — the only ones guaranteed to
	// sit between regions on every realization, hence usable for direct
	// inclusion and path-uniqueness reasoning.
	blockers map[string]bool
	// rig is the RIG of the indexed names; with full indexing, the grammar
	// RIG restricted to its nodes. Scoped names stay nodes but are transparent
	// for edge contraction: their regions may be absent on some realizations.
	rig *rig.Graph
}

// Choice resolves the instance's indexing choice. An instance never changes,
// so its choice is fixed, and a splice keeps its parent's: an engine resolves
// it once.
func (c *Catalog) Choice(in *index.Instance) *Choice {
	names := in.Names()
	var sb strings.Builder
	for _, n := range names {
		sb.WriteString(n + "\x00" + in.Scope(n) + "\x00")
	}
	sig := sb.String()
	c.choiceMu.Lock()
	defer c.choiceMu.Unlock()
	if ch, ok := c.choices[sig]; ok {
		return ch
	}
	ch := &Choice{has: map[string]bool{}, scope: map[string]string{}, blockers: map[string]bool{}}
	var opaque []string
	for _, n := range names {
		ch.has[n] = true
		if w := in.Scope(n); w != "" {
			ch.scope[n] = w
		} else {
			ch.blockers[n] = true
			opaque = append(opaque, n)
		}
	}
	ch.rig = c.RIG.ProjectTransparent(names, opaque)
	if len(c.choices) == maxChoices {
		clear(c.choices)
	}
	c.choices[sig] = ch
	return ch
}

// usableAt reports whether name can serve as an indexed anchor on a path
// whose earlier concrete names are prior: a scoped name requires its scope
// to occur among them (Section 7's selective indexing).
func (ch *Choice) usableAt(name string, prior []string) bool {
	if !ch.has[name] {
		return false
	}
	w := ch.scope[name]
	if w == "" {
		return true
	}
	for _, p := range prior {
		if p == w {
			return true
		}
	}
	return false
}
