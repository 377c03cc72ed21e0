package experiments

import (
	"fmt"
	"strings"
	"time"

	"qof/internal/advisor"
	"qof/internal/bibtex"
	"qof/internal/engine"
	"qof/internal/grammar"
	"qof/internal/scan"
	"qof/internal/text"
	"qof/internal/xsql"
)

// E7 regenerates Section 5.2's join handling: the query "references whose
// editors include one of the authors" needs a value join, which the index
// cannot decide — but existence chains narrow what must be loaded into the
// database, versus loading every object.
func E7(opt Options) (*Table, error) {
	t := &Table{
		ID:     "E7",
		Title:  "value join (editors ∩ authors): index-assisted loading vs full load",
		Header: []string{"refs", "index_ms", "fullload_ms", "speedup", "candidates", "parsed", "answers"},
		Notes: []string{
			"index-assisted: existence chains narrow candidates, leaf texts are joined, only the matches are parsed into objects",
		},
	}
	q := mustQuery(`SELECT r FROM References r WHERE r.Editors.Name.Last_Name = r.Authors.Name.Last_Name`)
	for _, n := range opt.Sizes {
		setup, err := NewBibtexSetup(n, grammar.IndexSpec{}, nil)
		if err != nil {
			return nil, err
		}
		var cand, parsed, answers int
		indexTime, err := MedianTime(opt.Repeats, func() error {
			res, err := setup.Engine.Execute(q)
			if err != nil {
				return err
			}
			// Both sides load their answers into the database.
			objs, err := res.Objects()
			if err != nil {
				return err
			}
			cand, parsed, answers = res.Stats.Candidates, res.Stats.Parsed+len(objs), res.Stats.Results
			return nil
		})
		if err != nil {
			return nil, err
		}
		fullTime, err := MedianTime(opt.Repeats, func() error {
			res, err := scan.FullScan(setup.Cat, setup.Doc, q)
			if err != nil {
				return err
			}
			if len(res.Objects) != answers {
				return fmt.Errorf("E7: baseline disagrees: %d vs %d", len(res.Objects), answers)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if answers != setup.Stats.SelfEditedByAuth {
			return nil, fmt.Errorf("E7: wrong answer: %d vs %d", answers, setup.Stats.SelfEditedByAuth)
		}
		t.Rows = append(t.Rows, []string{
			itoa(n), ms(indexTime), ms(fullTime), ratio(indexTime, fullTime),
			itoa(cand), itoa(parsed), itoa(answers),
		})
	}
	return t, nil
}

// E8 regenerates Section 7's central tradeoff: as the index set grows from
// minimal to full, query time falls (candidates shrink, then filtering
// disappears) while index size and build time rise. The advisor's
// recommendation marks the knee of the curve.
func E8(opt Options) (*Table, error) {
	t := &Table{
		ID:    "E8",
		Title: "efficiency vs amount of indexing (query: Chang as author)",
		Header: []string{"spec", "names", "regions", "index_KB", "build_ms",
			"exact", "candidates", "query_ms"},
	}
	n := opt.Sizes[len(opt.Sizes)-1]

	cat := bibtex.Catalog()
	rec, err := advisor.Recommend(cat, []*xsql.Query{mustQuery(changQuery)})
	if err != nil {
		return nil, err
	}
	ladder := []struct {
		name string
		spec grammar.IndexSpec
	}{
		{"root-only", grammar.IndexSpec{Names: []string{bibtex.NTReference}}},
		{"+Last_Name", grammar.IndexSpec{Names: []string{bibtex.NTReference, bibtex.NTLastName}}},
		{"advisor(" + strings.Join(rec.Names, ",") + ")", rec.Spec()},
		{"+Editors,Name", grammar.IndexSpec{Names: []string{
			bibtex.NTReference, bibtex.NTLastName, bibtex.NTAuthors, bibtex.NTEditors, bibtex.NTName}}},
		{"full", grammar.IndexSpec{}},
	}
	cfg := bibtex.DefaultConfig(n)
	content, st := bibtex.Generate(cfg)
	doc := text.NewDocument("e8.bib", content)
	for _, step := range ladder {
		var buildTime time.Duration
		setup := &BibtexSetup{}
		buildTime, err := MedianTime(opt.Repeats, func() error {
			s, err := NewBibtexSetupFromDoc(doc, step.spec)
			if err != nil {
				return err
			}
			*setup = *s
			return nil
		})
		if err != nil {
			return nil, err
		}
		setup.Stats = st
		q := mustQuery(changQuery)
		var cand, answers int
		var exact bool
		qTime, err := MedianTime(opt.Repeats, func() error {
			res, err := setup.Engine.Execute(q)
			if err != nil {
				return err
			}
			cand, answers, exact = res.Stats.Candidates, res.Stats.Results, res.Stats.Exact
			return nil
		})
		if err != nil {
			return nil, err
		}
		if answers != st.TargetAsAuthor {
			return nil, fmt.Errorf("E8: wrong answer under %s", step.name)
		}
		t.Rows = append(t.Rows, []string{
			step.name, itoa(len(setup.Instance.Names())), itoa(setup.Instance.RegionCount()),
			itoa(setup.Instance.SizeBytes() / 1024), ms(buildTime),
			fmt.Sprintf("%v", exact), itoa(cand), ms(qTime),
		})
	}
	t.Notes = append(t.Notes,
		"build_ms includes parsing the file and extracting the region sets",
		fmt.Sprintf("advisor recommendation for the workload: %v", rec.Names))
	return t, nil
}

// NewBibtexSetupFromDoc indexes an existing document per spec (used when
// several index choices are compared over the same corpus).
func NewBibtexSetupFromDoc(doc *text.Document, spec grammar.IndexSpec) (*BibtexSetup, error) {
	cat := bibtex.Catalog()
	in, _, err := cat.Grammar.BuildInstance(doc, spec)
	if err != nil {
		return nil, err
	}
	return &BibtexSetup{Cat: cat, Doc: doc, Instance: in, Engine: engine.New(cat, in)}, nil
}

// E9 regenerates Section 7's selective indexing: indexing Last_Name only
// inside Authors regions serves author queries with a smaller index and
// tighter candidates than the global Last_Name index.
func E9(opt Options) (*Table, error) {
	t := &Table{
		ID:    "E9",
		Title: "selective indexing: Last_Name globally vs only within Authors",
		Header: []string{"spec", "lastname_regions", "index_KB", "exact",
			"candidates", "answers", "query_ms"},
		Notes: []string{
			"both specs also index Reference; the scoped index cannot certify exactness and filters its (already tight) candidates",
		},
	}
	n := opt.Sizes[len(opt.Sizes)-1]
	specs := []struct {
		name string
		spec grammar.IndexSpec
	}{
		{"global", grammar.IndexSpec{Names: []string{bibtex.NTReference, bibtex.NTLastName}}},
		{"scoped", grammar.IndexSpec{
			Names:  []string{bibtex.NTReference},
			Scoped: []grammar.ScopedName{{Name: bibtex.NTLastName, Within: bibtex.NTAuthors}},
		}},
	}
	for _, sp := range specs {
		setup, err := NewBibtexSetup(n, sp.spec, nil)
		if err != nil {
			return nil, err
		}
		q := mustQuery(changQuery)
		var cand, answers int
		var exact bool
		d, err := MedianTime(opt.Repeats, func() error {
			res, err := setup.Engine.Execute(q)
			if err != nil {
				return err
			}
			cand, answers, exact = res.Stats.Candidates, res.Stats.Results, res.Stats.Exact
			return nil
		})
		if err != nil {
			return nil, err
		}
		if answers != setup.Stats.TargetAsAuthor {
			return nil, fmt.Errorf("E9: wrong answer under %s", sp.name)
		}
		t.Rows = append(t.Rows, []string{
			sp.name, itoa(setup.Instance.MustRegion(bibtex.NTLastName).Len()),
			itoa(setup.Instance.SizeBytes() / 1024), fmt.Sprintf("%v", exact),
			itoa(cand), itoa(answers), ms(d),
		})
	}
	return t, nil
}
