package rig

import (
	"strings"
	"testing"

	"qof/internal/index"
	"qof/internal/region"
	"qof/internal/text"
)

// bibtexRIG builds the RIG of the paper's Section 3.2 example:
//
//	Reference -> Key | Authors | Title | Editors
//	Authors -> Name, Editors -> Name
//	Name -> First_Name | Last_Name
func bibtexRIG() *Graph {
	g := New("Reference", "Key", "Authors", "Title", "Editors", "Name", "First_Name", "Last_Name")
	g.AddEdge("Reference", "Key")
	g.AddEdge("Reference", "Authors")
	g.AddEdge("Reference", "Title")
	g.AddEdge("Reference", "Editors")
	g.AddEdge("Authors", "Name")
	g.AddEdge("Editors", "Name")
	g.AddEdge("Name", "First_Name")
	g.AddEdge("Name", "Last_Name")
	return g
}

func TestGraphBasics(t *testing.T) {
	g := bibtexRIG()
	if !g.HasNode("Reference") || g.HasNode("Nope") {
		t.Error("HasNode")
	}
	if !g.HasEdge("Reference", "Authors") || g.HasEdge("Authors", "Reference") {
		t.Error("HasEdge")
	}
	if g.HasEdge("Nope", "Authors") || g.HasEdge("Authors", "Nope") {
		t.Error("HasEdge with unknown nodes")
	}
	if got := g.EdgeCount(); got != 8 {
		t.Errorf("EdgeCount = %d", got)
	}
	g.AddEdge("Reference", "Authors") // duplicate is a no-op
	if got := g.EdgeCount(); got != 8 {
		t.Errorf("EdgeCount after dup = %d", got)
	}
	if got := g.Successors("Name"); len(got) != 2 || got[0] != "First_Name" || got[1] != "Last_Name" {
		t.Errorf("Successors = %v", got)
	}
	if got := g.Successors("Nope"); got != nil {
		t.Errorf("Successors unknown = %v", got)
	}
	if len(g.Nodes()) != 8 {
		t.Errorf("Nodes = %v", g.Nodes())
	}
	if !strings.Contains(g.String(), "Authors -> Name") {
		t.Errorf("String = %q", g.String())
	}
}

func TestHasPath(t *testing.T) {
	g := bibtexRIG()
	cases := []struct {
		from, to string
		want     bool
	}{
		{"Reference", "Last_Name", true},
		{"Reference", "Authors", true},
		{"Authors", "Last_Name", true},
		{"Title", "Last_Name", false}, // the paper's e3 trivial expression
		{"Last_Name", "Reference", false},
		{"Reference", "Reference", false}, // non-empty walks only
		{"Nope", "Reference", false},
		{"Reference", "Nope", false},
	}
	for _, tc := range cases {
		if got := g.HasPath(tc.from, tc.to); got != tc.want {
			t.Errorf("HasPath(%s, %s) = %v, want %v", tc.from, tc.to, got, tc.want)
		}
	}
}

func TestHasPathWithCycle(t *testing.T) {
	g := New()
	g.AddEdge("Doc", "Section")
	g.AddEdge("Section", "Section")
	g.AddEdge("Section", "Para")
	if !g.HasPath("Section", "Section") {
		t.Error("self-loop gives a non-empty walk")
	}
	if !g.HasPath("Doc", "Para") {
		t.Error("Doc reaches Para")
	}
}

func TestOnlyPathIsEdge(t *testing.T) {
	g := bibtexRIG()
	// (Authors, Name) is the only Authors→Name path.
	if !g.OnlyPathIsEdge("Authors", "Name") {
		t.Error("Authors->Name should be the only path")
	}
	// (Reference, Authors): also only path.
	if !g.OnlyPathIsEdge("Reference", "Authors") {
		t.Error("Reference->Authors should be the only path")
	}
	// No edge Reference→Name at all.
	if g.OnlyPathIsEdge("Reference", "Name") {
		t.Error("Reference->Name has no edge")
	}
	// Add a second route Reference→X→Authors: edge no longer unique.
	g2 := bibtexRIG()
	g2.AddEdge("Reference", "X")
	g2.AddEdge("X", "Authors")
	if g2.OnlyPathIsEdge("Reference", "Authors") {
		t.Error("second route must defeat uniqueness")
	}
	// A cycle at the target defeats uniqueness too.
	g3 := bibtexRIG()
	g3.AddEdge("Name", "Name")
	if g3.OnlyPathIsEdge("Authors", "Name") {
		t.Error("self-loop at Name extends the path")
	}
}

func TestAllPathsStartWithEdge(t *testing.T) {
	g := bibtexRIG()
	g.AddEdge("Name", "Name") // self-nesting
	// Every Authors→Name path starts with the edge (then may cycle at Name).
	if !g.AllPathsStartWithEdge("Authors", "Name") {
		t.Error("Authors->Name: all paths start with the edge")
	}
	if g.OnlyPathIsEdge("Authors", "Name") {
		t.Error("...but the edge is not the only path")
	}
	// With a bypass the condition fails.
	g.AddEdge("Authors", "Mid")
	g.AddEdge("Mid", "Name")
	if g.AllPathsStartWithEdge("Authors", "Name") {
		t.Error("bypass must defeat the condition")
	}
	if g.AllPathsStartWithEdge("Reference", "Name") {
		t.Error("no such edge")
	}
}

func TestAllPathsThrough(t *testing.T) {
	g := bibtexRIG()
	// Every Authors→Last_Name path passes through Name.
	if !g.AllPathsThrough("Authors", "Name", "Last_Name") {
		t.Error("Authors→Last_Name via Name")
	}
	// Reference→Last_Name passes through Name too (via Authors or Editors)...
	if !g.AllPathsThrough("Reference", "Name", "Last_Name") {
		t.Error("Reference→Last_Name via Name")
	}
	// ...but not always through Authors (Editors route exists): the paper's
	// reason why Reference ⊃ Authors ⊃ Last_Name cannot be shortened.
	if g.AllPathsThrough("Reference", "Authors", "Last_Name") {
		t.Error("Editors route avoids Authors")
	}
	// via must occur as an interior node: a bare edge defeats it even when
	// via equals an endpoint name (self-nested regions).
	if g.AllPathsThrough("Name", "Name", "Last_Name") {
		t.Error("Name→Last_Name edge has no interior Name")
	}
	if g.AllPathsThrough("Authors", "Last_Name", "Last_Name") {
		t.Error("Authors→Name→Last_Name has no interior Last_Name")
	}
	// Direct edge bypasses via.
	g.AddEdge("Authors", "Last_Name")
	if g.AllPathsThrough("Authors", "Name", "Last_Name") {
		t.Error("direct edge avoids Name")
	}
	// via not a node: holds only when no path exists.
	g2 := New()
	g2.AddEdge("A", "B")
	if g2.AllPathsThrough("A", "Zed", "B") {
		t.Error("path exists avoiding nonexistent node")
	}
	if !g2.AllPathsThrough("B", "Zed", "A") {
		t.Error("no path at all: vacuously true")
	}
}

func TestIsPath(t *testing.T) {
	g := bibtexRIG()
	if !g.IsPath("Reference", "Authors", "Name", "Last_Name") {
		t.Error("query path should match")
	}
	if g.IsPath("Reference", "Title", "Last_Name") {
		t.Error("Title has no Last_Name edge")
	}
	if g.IsPath() {
		t.Error("empty path")
	}
	if !g.IsPath("Reference") {
		t.Error("single node path")
	}
	if g.IsPath("Nope") {
		t.Error("unknown node")
	}
}

func TestProject(t *testing.T) {
	g := bibtexRIG()
	// The paper's Section 6.1 example: index {Reference, Key, Last_Name}.
	p := g.Project("Reference", "Key", "Last_Name")
	if len(p.Nodes()) != 3 {
		t.Fatalf("nodes = %v", p.Nodes())
	}
	if !p.HasEdge("Reference", "Key") {
		t.Error("direct edge must survive")
	}
	if !p.HasEdge("Reference", "Last_Name") {
		t.Error("contracted path Reference→Authors→Name→Last_Name must appear")
	}
	if p.HasEdge("Key", "Last_Name") || p.HasEdge("Last_Name", "Reference") {
		t.Errorf("unexpected edges:\n%s", p)
	}
	if p.EdgeCount() != 2 {
		t.Errorf("edges:\n%s", p)
	}
	// Indexed intermediates block contraction: with Authors also indexed,
	// there is no Reference→Last_Name edge that skips it... but the
	// Editors route (unindexed) still realizes one.
	p2 := g.Project("Reference", "Authors", "Last_Name")
	if !p2.HasEdge("Reference", "Last_Name") {
		t.Error("Editors route still contracts to an edge")
	}
	if !p2.HasEdge("Authors", "Last_Name") || !p2.HasEdge("Reference", "Authors") {
		t.Errorf("expected contracted edges:\n%s", p2)
	}
	// Indexing Editors as well removes the skip edge.
	p3 := g.Project("Reference", "Authors", "Editors", "Last_Name")
	if p3.HasEdge("Reference", "Last_Name") {
		t.Error("all routes blocked by indexed intermediates")
	}
	// Projecting onto unknown names ignores them.
	p4 := g.Project("Reference", "Ghost")
	if p4.HasNode("Ghost") || len(p4.Nodes()) != 1 {
		t.Errorf("ghost projection: %v", p4.Nodes())
	}
}

func TestProjectCycle(t *testing.T) {
	g := New()
	g.AddEdge("Doc", "Section")
	g.AddEdge("Section", "Section")
	g.AddEdge("Section", "Para")
	// Dropping Section entirely gives Doc→Para through the cycle.
	p := g.Project("Doc", "Para")
	if !p.HasEdge("Doc", "Para") {
		t.Errorf("cycle traversal: %s", p)
	}
	// Keeping Section keeps the self-loop.
	p2 := g.Project("Doc", "Section")
	if !p2.HasEdge("Section", "Section") || !p2.HasEdge("Doc", "Section") {
		t.Errorf("self loop lost: %s", p2)
	}
}

func idxSet(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

func TestCountRealizingPaths(t *testing.T) {
	g := bibtexRIG()
	// With only {Reference, Key, Last_Name} indexed, the projected edge
	// Reference→Last_Name is realized by TWO paths (Authors and Editors):
	// the paper's canonical superset case.
	idx := idxSet("Reference", "Key", "Last_Name")
	if got := g.CountRealizingPaths("Reference", "Last_Name", idx); got != MultiplePaths {
		t.Errorf("Reference→Last_Name = %v, want MultiplePaths", got)
	}
	// Reference→Key is unique.
	if got := g.CountRealizingPaths("Reference", "Key", idx); got != UniquePath {
		t.Errorf("Reference→Key = %v, want UniquePath", got)
	}
	// With Authors indexed too, Authors→Last_Name is unique (via Name).
	idx2 := idxSet("Reference", "Authors", "Last_Name")
	if got := g.CountRealizingPaths("Authors", "Last_Name", idx2); got != UniquePath {
		t.Errorf("Authors→Last_Name = %v, want UniquePath", got)
	}
	// No path cases.
	if got := g.CountRealizingPaths("Key", "Last_Name", idx); got != NoPath {
		t.Errorf("Key→Last_Name = %v, want NoPath", got)
	}
	if got := g.CountRealizingPaths("Ghost", "Key", idx); got != NoPath {
		t.Errorf("Ghost = %v", got)
	}
	if got := g.CountRealizingPaths("Reference", "Ghost", idx); got != NoPath {
		t.Errorf("to Ghost = %v", got)
	}
}

func TestCountRealizingPathsCycle(t *testing.T) {
	g := New()
	g.AddEdge("Doc", "Section")
	g.AddEdge("Section", "Section")
	g.AddEdge("Section", "Para")
	// Unindexed Section cycle between Doc and Para → infinitely many walks.
	if got := g.CountRealizingPaths("Doc", "Para", idxSet("Doc", "Para")); got != MultiplePaths {
		t.Errorf("cycle = %v, want MultiplePaths", got)
	}
	// Direct edge with indexed intermediate set: Doc→Section unique.
	if got := g.CountRealizingPaths("Doc", "Section", idxSet("Doc", "Section", "Para")); got != UniquePath {
		t.Errorf("Doc→Section = %v, want UniquePath", got)
	}
	// Section→Section: the self-loop is the unique all-indexed path.
	if got := g.CountRealizingPaths("Section", "Section", idxSet("Doc", "Section", "Para")); got != UniquePath {
		t.Errorf("Section→Section = %v, want UniquePath", got)
	}
}

// buildInstance creates a tiny instance with the BIBTEX nesting shape used
// by the Satisfies tests.
func buildInstance(t *testing.T) *index.Instance {
	t.Helper()
	doc := text.NewDocument("d", strings.Repeat("x ", 50))
	sets := make(map[string]region.Set)
	def := func(name string, pairs ...int) {
		rs := make([]region.Region, 0, len(pairs)/2)
		for i := 0; i < len(pairs); i += 2 {
			rs = append(rs, region.Of(pairs[i], pairs[i+1]))
		}
		sets[name] = region.FromRegions(rs)
	}
	def("Reference", 0, 100)
	def("Authors", 5, 40)
	def("Editors", 45, 90)
	def("Name", 10, 35, 50, 85)
	def("First_Name", 10, 20, 50, 60)
	def("Last_Name", 25, 35, 70, 85)
	return index.New(index.NewWordIndex(doc), sets, nil)
}

func TestSatisfies(t *testing.T) {
	g := bibtexRIG()
	in := buildInstance(t)
	if err := g.Satisfies(in); err != nil {
		t.Fatalf("Satisfies: %v", err)
	}
	// Removing the Editors→Name edge breaks satisfaction: the editor Name
	// region [50,85) is directly included in Editors [45,90).
	g2 := New("Reference", "Key", "Authors", "Title", "Editors", "Name", "First_Name", "Last_Name")
	g2.AddEdge("Reference", "Authors")
	g2.AddEdge("Reference", "Editors")
	g2.AddEdge("Authors", "Name")
	g2.AddEdge("Name", "First_Name")
	g2.AddEdge("Name", "Last_Name")
	err := g2.Satisfies(in)
	if err == nil {
		t.Fatal("Satisfies should fail without Editors→Name")
	}
	if !strings.Contains(err.Error(), "Editors") || !strings.Contains(err.Error(), "Name") {
		t.Errorf("error should name the violation: %v", err)
	}
}

func TestSatisfiesIgnoresIndirect(t *testing.T) {
	// Reference includes Last_Name but never *directly*: no edge needed.
	g := bibtexRIG()
	in := buildInstance(t)
	if g.HasEdge("Reference", "Last_Name") {
		t.Fatal("precondition")
	}
	if err := g.Satisfies(in); err != nil {
		t.Fatalf("indirect inclusion misflagged: %v", err)
	}
}
