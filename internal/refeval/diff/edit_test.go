package diff_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"qof/internal/bibtex"
	"qof/internal/engine"
	"qof/internal/grammar"
	"qof/internal/index"
	"qof/internal/logs"
	"qof/internal/qgen"
	"qof/internal/refeval"
	"qof/internal/refeval/diff"
	"qof/internal/sgml"
)

const (
	editSeed = 2718
	// editsPerSpec is the length of each random edit sequence, and
	// queriesPerEdit the oracle sample run after every edit.
	editsPerSpec   = 12
	queriesPerEdit = 3
)

// repetitions names each domain's separator-free repetition element, the
// unit the sequences insert and delete.
var repetitions = map[string]string{
	"bibtex": bibtex.NTReference,
	"sgml":   sgml.NTSection,
	"logs":   logs.NTEntry,
}

// TestDifferentialEdits applies a seeded random sequence of edits to every
// domain's corpus under every index specification, scoped ones included:
// Replace puts the text of a region of the same name in place of one (every
// name's first), and InsertAfter / Delete add or remove a whole repetition
// element. After each edit the instance must be the one a build of the
// edited document yields — index.Save byte-identical, which covers the named
// sets and their scopes, and every word's postings equal — and the oracle
// must agree with the engine over it on a sample of generated queries.
func TestDifferentialEdits(t *testing.T) {
	for _, d := range qgen.Domains(corpusSeed) {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			t.Parallel()
			gen := qgen.NewQueryGen(d, querySeed)
			for si, spec := range d.Specs {
				rng := rand.New(rand.NewSource(editSeed + int64(si)))
				in, _, err := d.Cat.Grammar.BuildInstance(d.Doc, spec)
				if err != nil {
					t.Fatal(err)
				}
				names := in.Names()
				for i := 0; i < len(names)+editsPerSpec; i++ {
					// Every name is replaced once first; then the edits are drawn.
					var name string
					if i < len(names) {
						name = names[i]
					}
					what, next, err := randomEdit(rng, d, in, name)
					where := fmt.Sprintf("spec %d, edit %d (%s)", si, i, what)
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					if err := sameAsBuild(d, spec, next); err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					oracle, err := refeval.NewOracle(d.Cat, next.Document())
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					h := &diff.Harness{Name: where, In: next, Eng: engine.New(d.Cat, next), Oracle: oracle, Ref: refeval.New(next)}
					for q := 0; q < queriesPerEdit; q++ {
						if err := h.CheckQuery(gen.Query()); err != nil {
							t.Fatal(err)
						}
					}
					in = next
				}
			}
		})
	}
}

// randomEdit draws one edit of in and applies it: a replacement of a region
// of name, or any edit when name is "". The edited document stays under
// twice the corpus's length, and the repetition keeps two elements.
func randomEdit(rng *rand.Rand, d *qgen.Domain, in *index.Instance, name string) (string, *index.Instance, error) {
	doc := in.Document()
	rep := repetitions[d.Name]
	reps, _ := in.Region(rep)
	for {
		op := rng.Intn(3)
		if name != "" {
			op = 0
		}
		switch {
		case op == 1 && reps.Len() > 0:
			r, src := reps.At(rng.Intn(reps.Len())), reps.At(rng.Intn(reps.Len()))
			if doc.Len()+src.Len() > 2*d.Doc.Len() {
				continue
			}
			out, err := engine.InsertAfter(d.Cat, in, rep, r, "\n"+doc.Slice(int(src.Start), int(src.End)))
			return fmt.Sprintf("insert %v after %s %v", src, rep, r), out, err
		case op == 2 && reps.Len() > 2:
			r := reps.At(rng.Intn(reps.Len()))
			out, err := engine.DeleteRegion(d.Cat, in, rep, r)
			return fmt.Sprintf("delete %s %v", rep, r), out, err
		case op == 0:
			name := name
			if name == "" {
				names := in.Names()
				name = names[rng.Intn(len(names))]
			}
			set := in.MustRegion(name)
			if set.IsEmpty() {
				return "no " + name + " to replace", in, nil
			}
			r, src := set.At(rng.Intn(set.Len())), set.At(rng.Intn(set.Len()))
			if doc.Len()+src.Len()-r.Len() > 2*d.Doc.Len() {
				continue
			}
			out, err := engine.ReplaceRegion(d.Cat, in, name, r, doc.Slice(int(src.Start), int(src.End)))
			return fmt.Sprintf("replace %s %v by %v", name, r, src), out, err
		}
	}
}

// sameAsBuild reports how in differs from a fresh build of its document
// under spec: in what index.Save writes, or in a word's postings.
func sameAsBuild(d *qgen.Domain, spec grammar.IndexSpec, in *index.Instance) error {
	built, _, err := d.Cat.Grammar.BuildInstance(in.Document(), spec)
	if err != nil {
		return fmt.Errorf("build of the edited document: %w", err)
	}
	var got, want bytes.Buffer
	if err := in.Save(&got); err != nil {
		return err
	}
	if err := built.Save(&want); err != nil {
		return err
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		for _, name := range built.Names() {
			if s, ok := in.Region(name); !ok || !s.Equal(built.MustRegion(name)) || in.Scope(name) != built.Scope(name) {
				return fmt.Errorf("saved index differs from a build's: %q is %v (scope %q), a build has %v (scope %q)",
					name, s, in.Scope(name), built.MustRegion(name), built.Scope(name))
			}
		}
		return fmt.Errorf("saved index differs from a build's (%d and %d bytes)", got.Len(), want.Len())
	}
	gw, bw := in.Words(), built.Words()
	if gw.WordCount() != bw.WordCount() {
		return fmt.Errorf("%d distinct words, a build has %d", gw.WordCount(), bw.WordCount())
	}
	var bad error
	bw.ForEachWord(func(w string, _ int) {
		if bad == nil && !gw.MatchPoints(w).Equal(bw.MatchPoints(w)) {
			bad = fmt.Errorf("postings of %q: %v, a build has %v", w, gw.MatchPoints(w), bw.MatchPoints(w))
		}
	})
	return bad
}
