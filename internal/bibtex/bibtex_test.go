package bibtex

import (
	"strings"
	"testing"

	"qof/internal/db"
	"qof/internal/grammar"
	"qof/internal/text"
)

func TestSampleEntryParses(t *testing.T) {
	g := Grammar()
	doc := text.NewDocument("sample.bib", SampleEntry)
	tree, err := g.Parse(doc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	refs := tree.Find(NTReference)
	if len(refs) != 1 {
		t.Fatalf("references = %d", len(refs))
	}
	v := grammar.BuildValue(refs[0], doc.Content()).(*db.Tuple)
	if key, _ := v.Get(NTKey); key.(db.String) != "Corl82a" {
		t.Errorf("Key = %v", key)
	}
	lasts := db.NavigateStrings(v, db.PathOf(NTAuthors, NTName, NTLastName))
	if len(lasts) != 2 || lasts[0] != "Corliss" || lasts[1] != "Chang" {
		t.Errorf("author last names = %v", lasts)
	}
	eds := db.NavigateStrings(v, db.PathOf(NTEditors, NTName, NTLastName))
	if len(eds) != 2 || eds[0] != "Griewank" || eds[1] != "Corliss" {
		t.Errorf("editor last names = %v", eds)
	}
	kws := db.NavigateStrings(v, db.PathOf(NTKeywords, NTKeyword))
	if len(kws) != 3 || kws[0] != "point algorithm" {
		t.Errorf("keywords = %v", kws)
	}
	refsTo := db.NavigateStrings(v, db.PathOf(NTReferred, NTRefKey))
	if len(refsTo) != 3 || refsTo[0] != "Aber88a" {
		t.Errorf("referred = %v", refsTo)
	}
	if pages, _ := v.Get(NTPages); pages.(db.String) != "114--144" {
		t.Errorf("Pages = %v", pages)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig(50)
	a, sa := Generate(cfg)
	b, sb := Generate(cfg)
	if a != b || sa != sb {
		t.Fatal("generation is not deterministic")
	}
	cfg.Seed = 7
	c, _ := Generate(cfg)
	if a == c {
		t.Fatal("seed has no effect")
	}
}

func TestGenerateParsesAndCounts(t *testing.T) {
	cfg := DefaultConfig(120)
	cfg.TargetAuthorShare = 0.2
	cfg.TargetEditorShare = 0.3
	content, st := Generate(cfg)
	g := Grammar()
	doc := text.NewDocument("gen.bib", content)
	tree, err := g.Parse(doc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	refs := tree.Find(NTReference)
	if len(refs) != 120 {
		t.Fatalf("references = %d", len(refs))
	}
	// Recompute ground truth through the database image and compare.
	var asAuthor, asEditor, either, selfEd int
	for _, r := range refs {
		v := grammar.BuildValue(r, content)
		au := db.NavigateStrings(v, db.PathOf(NTAuthors, NTName, NTLastName))
		ed := db.NavigateStrings(v, db.PathOf(NTEditors, NTName, NTLastName))
		hasAu := contains(au, cfg.TargetName)
		hasEd := contains(ed, cfg.TargetName)
		if hasAu {
			asAuthor++
		}
		if hasEd {
			asEditor++
		}
		if hasAu || hasEd {
			either++
		}
		if intersects(au, ed) {
			selfEd++
		}
	}
	if asAuthor != st.TargetAsAuthor || asEditor != st.TargetAsEditor ||
		either != st.TargetAsEither || selfEd != st.SelfEditedByAuth {
		t.Errorf("stats mismatch: parsed (%d,%d,%d,%d) vs generator (%d,%d,%d,%d)",
			asAuthor, asEditor, either, selfEd,
			st.TargetAsAuthor, st.TargetAsEditor, st.TargetAsEither, st.SelfEditedByAuth)
	}
	if st.TargetAsAuthor == 0 || st.TargetAsEditor == 0 {
		t.Error("target shares produced no occurrences; experiments would be vacuous")
	}
	if st.TargetAsEither >= 120 {
		t.Error("target occurs everywhere; selectivity lost")
	}
}

func TestGeneratedRegionsNestStrictly(t *testing.T) {
	content, _ := Generate(DefaultConfig(30))
	g := Grammar()
	doc := text.NewDocument("gen.bib", content)
	in, _, err := g.BuildInstance(doc, grammar.IndexSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if !in.Universe().ProperlyNested() {
		t.Fatal("regions must nest properly")
	}
	if err := g.DeriveRIG().Satisfies(in); err != nil {
		t.Fatalf("instance violates derived RIG: %v", err)
	}
	// No two regions of different names coincide (strict-inclusion model).
	seen := make(map[[2]int32]string)
	for _, name := range in.Names() {
		for _, r := range in.MustRegion(name).Regions() {
			k := [2]int32{r.Start, r.End}
			if other, ok := seen[k]; ok && other != name {
				t.Fatalf("regions coincide: %s and %s at %v", other, name, r)
			}
			seen[k] = name
		}
	}
}

func TestCatalogBinding(t *testing.T) {
	cat := Catalog()
	nt, ok := cat.ClassNT(ClassReferences)
	if !ok || nt != NTReference {
		t.Fatalf("binding = %q %v", nt, ok)
	}
	if !cat.RIG.IsPath(NTReference, NTAuthors, NTName, NTLastName) {
		t.Error("paper's query path missing from RIG")
	}
	if !strings.Contains(cat.RIG.String(), "Authors -> Name") {
		t.Error("RIG edges")
	}
}

func contains(ss []string, w string) bool {
	for _, s := range ss {
		if s == w {
			return true
		}
	}
	return false
}

func intersects(a, b []string) bool {
	set := make(map[string]bool, len(a))
	for _, s := range a {
		set[s] = true
	}
	for _, s := range b {
		if set[s] {
			return true
		}
	}
	return false
}

// BenchmarkSatisfies checks Definition 3.1 on a full index of 5 000
// generated references: one ⊃d over the universe for each ordered pair of
// names the derived RIG has no edge between. The universe is built before
// the timer starts, as the instance keeps it.
func BenchmarkSatisfies(b *testing.B) {
	content, _ := Generate(DefaultConfig(5000))
	g := Grammar()
	in, _, err := g.BuildInstance(text.NewDocument("gen.bib", content), grammar.IndexSpec{})
	if err != nil {
		b.Fatal(err)
	}
	rig := g.DeriveRIG()
	in.Universe()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rig.Satisfies(in); err != nil {
			b.Fatal(err)
		}
	}
}
