package experiments

import (
	"fmt"

	"qof/internal/bibtex"
	"qof/internal/engine"
	"qof/internal/grammar"
)

// editedReference is the replacement text used by X1.
const editedReference = `@INCOLLECTION{Edited01,
AUTHOR = "Y. F. Chang",
TITLE = "A Revised Entry",
BOOKTITLE = "Updates on Files",
YEAR = "1994",
EDITOR = "T. Milo",
PUBLISHER = "ACM Press",
PAGES = "1--12",
REFERRED = "",
KEYWORDS = "updates",
ABSTRACT = "an edited reference",
}`

// X1 is an extension experiment (not a claim from the paper, which defers
// index maintenance to the text system): updating one reference in place by
// splicing the region indexes and re-parsing only the replacement, versus
// rebuilding the whole index. The spliced instance is verified to equal a
// from-scratch rebuild before timing.
func X1(opt Options) (*Table, error) {
	t := &Table{
		ID:     "X1",
		Title:  "extension: incremental index maintenance vs full rebuild on a one-reference edit",
		Header: []string{"refs", "splice_ms", "rebuild_ms", "speedup", "bytes_reparsed", "file_bytes"},
		Notes: []string{
			"splice: re-parse only the replacement text, shift/stretch all other regions",
			"rebuild: parse the whole file again (what a non-incremental indexer does)",
		},
	}
	for _, n := range opt.Sizes {
		setup, err := NewBibtexSetup(n, grammar.IndexSpec{}, nil)
		if err != nil {
			return nil, err
		}
		target := setup.Instance.MustRegion(bibtex.NTReference).At(n / 2)

		// Correctness first: splice equals rebuild.
		spliced, err := engine.ReplaceRegion(setup.Cat, setup.Instance, bibtex.NTReference, target, editedReference)
		if err != nil {
			return nil, err
		}
		doc2 := spliced.Document()
		rebuilt, _, err := setup.Cat.Grammar.BuildInstance(doc2, grammar.IndexSpec{})
		if err != nil {
			return nil, err
		}
		for _, name := range rebuilt.Names() {
			if !spliced.MustRegion(name).Equal(rebuilt.MustRegion(name)) {
				return nil, fmt.Errorf("X1: splice diverges from rebuild on %q", name)
			}
		}

		spliceTime, err := MedianTime(opt.Repeats, func() error {
			_, err := engine.ReplaceRegion(setup.Cat, setup.Instance, bibtex.NTReference, target, editedReference)
			return err
		})
		if err != nil {
			return nil, err
		}
		rebuildTime, err := MedianTime(opt.Repeats, func() error {
			_, _, err := setup.Cat.Grammar.BuildInstance(doc2, grammar.IndexSpec{})
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			itoa(n), ms(spliceTime), ms(rebuildTime), ratio(spliceTime, rebuildTime),
			itoa(len(editedReference)), itoa(setup.Doc.Len()),
		})
	}
	return t, nil
}
