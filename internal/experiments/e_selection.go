package experiments

import (
	"fmt"

	"qof/internal/algebra"
	"qof/internal/bibtex"
	"qof/internal/grammar"
	"qof/internal/scan"
)

// changQuery is the paper's running example (Section 2).
const changQuery = `SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`

// E1 regenerates the headline claim (Sections 1 and 8): evaluating a
// database query on files through the text index is significantly faster
// than the standard implementation that parses the whole file and loads the
// database, at every corpus size; a raw grep scan is timed for scale but
// cannot answer the structural query.
func E1(opt Options) (*Table, error) {
	t := &Table{
		ID:    "E1",
		Title: "Chang-as-author query: index evaluation vs full scan+load vs grep",
		Header: []string{"refs", "file_KB", "answers",
			"index_ms", "scan_ms", "grep_ms", "speedup_vs_scan", "idx_parsed_bytes"},
		Notes: []string{
			"index_ms: optimized inclusion expression + parsing only the result regions into objects (Result.Objects)",
			"scan_ms: parse whole file, build all objects, filter in the database ([ACM93] baseline)",
			"grep answers a different (weaker) question: word occurrences, not authors",
		},
	}
	for _, n := range opt.Sizes {
		setup, err := NewBibtexSetup(n, grammar.IndexSpec{}, nil)
		if err != nil {
			return nil, err
		}
		q := mustQuery(changQuery)
		var parsedBytes, answers int
		indexTime, err := MedianTime(opt.Repeats, func() error {
			res, err := setup.Engine.Execute(q)
			if err != nil {
				return err
			}
			// The paper's answer is objects in the database, as the
			// baseline's is; the engine's is spans until asked.
			objs, err := res.Objects()
			if err != nil {
				return err
			}
			parsedBytes = res.Stats.ParsedBytes + regionBytes(res.Regions)
			answers = len(objs)
			return nil
		})
		if err != nil {
			return nil, err
		}
		scanTime, err := MedianTime(opt.Repeats, func() error {
			res, err := scan.FullScan(setup.Cat, setup.Doc, q)
			if err != nil {
				return err
			}
			if len(res.Objects) != answers {
				return fmt.Errorf("E1: baseline disagrees: %d vs %d", len(res.Objects), answers)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		grepTime, _ := MedianTime(opt.Repeats, func() error {
			scan.Grep(setup.Doc, "Chang")
			return nil
		})
		if answers != setup.Stats.TargetAsAuthor {
			return nil, fmt.Errorf("E1: wrong answer: %d vs ground truth %d", answers, setup.Stats.TargetAsAuthor)
		}
		t.Rows = append(t.Rows, []string{
			itoa(n), itoa(setup.Doc.Len() / 1024), itoa(answers),
			ms(indexTime), ms(scanTime), ms(grepTime),
			ratio(indexTime, scanTime), itoa(parsedBytes),
		})
	}
	return t, nil
}

// E2 regenerates Section 3.2's optimization effect: the original expression
// Reference ⊃d Authors ⊃d Name ⊃d σ"Chang"(Last_Name) versus its unique
// most efficient version Reference ⊃ Authors ⊃ σ"Chang"(Last_Name).
func E2(opt Options) (*Table, error) {
	t := &Table{
		ID:    "E2",
		Title: "region-expression optimization (Theorem 3.6): original vs optimized",
		Header: []string{"refs", "orig_ms", "orig_layered_ms", "optimized_ms",
			"speedup", "speedup_layered", "orig_cost", "opt_cost", "results"},
		Notes: []string{
			`original:  Reference >d Authors >d Name >d contains(Last_Name, "Chang")`,
			`optimized: Reference > Authors > contains(Last_Name, "Chang")`,
			"orig_layered evaluates ⊃d with the paper's layered program (the PAT-era cost)",
		},
	}
	original := algebra.MustParse(`Reference >d Authors >d Name >d contains(Last_Name, "Chang")`)
	optimized := algebra.MustParse(`Reference > Authors > contains(Last_Name, "Chang")`)
	for _, n := range opt.Sizes {
		setup, err := NewBibtexSetup(n, grammar.IndexSpec{}, nil)
		if err != nil {
			return nil, err
		}
		ev := algebra.NewEvaluator(setup.Instance)
		lay := algebra.NewEvaluator(setup.Instance)
		lay.UseLayeredDirect = true
		var results int
		origTime, err := MedianTime(opt.Repeats, func() error {
			s, err := ev.Eval(original)
			results = s.Len()
			return err
		})
		if err != nil {
			return nil, err
		}
		var layResults int
		layTime, err := MedianTime(opt.Repeats, func() error {
			s, err := lay.Eval(original)
			layResults = s.Len()
			return err
		})
		if err != nil {
			return nil, err
		}
		var optResults int
		optTime, err := MedianTime(opt.Repeats, func() error {
			s, err := ev.Eval(optimized)
			optResults = s.Len()
			return err
		})
		if err != nil {
			return nil, err
		}
		if results != optResults || results != layResults {
			return nil, fmt.Errorf("E2: expressions disagree: %d vs %d vs %d", results, layResults, optResults)
		}
		t.Rows = append(t.Rows, []string{
			itoa(n), ms(origTime), ms(layTime), ms(optTime),
			ratio(optTime, origTime), ratio(optTime, layTime),
			itoa(algebra.Cost(original)), itoa(algebra.Cost(optimized)), itoa(results),
		})
	}
	return t, nil
}

// E4 regenerates Section 6's tradeoff: with partial indexing the index
// yields a candidate superset whose size (and hence the parsing effort)
// depends on how well the indexed names discriminate — here, on how often
// the target name appears as an editor rather than an author.
func E4(opt Options) (*Table, error) {
	t := &Table{
		ID:    "E4",
		Title: "partial indexing: candidate supersets and parsing effort (editor share varies)",
		Header: []string{"refs", "editor_share", "spec", "exact", "candidates", "answers",
			"parsed_bytes", "file_bytes", "query_ms"},
		Notes: []string{
			"full = every non-terminal; partial = {Reference, Key, Last_Name} (Section 6.1's example)",
			"candidate inflation grows with the editor share: editors cannot be told from authors",
		},
	}
	n := opt.Sizes[len(opt.Sizes)-1]
	specs := []struct {
		name string
		spec grammar.IndexSpec
	}{
		{"full", grammar.IndexSpec{}},
		{"partial", grammar.IndexSpec{Names: []string{bibtex.NTReference, bibtex.NTKey, bibtex.NTLastName}}},
	}
	for _, share := range []float64{0.05, 0.25, 0.50} {
		for _, sp := range specs {
			setup, err := NewBibtexSetup(n, sp.spec, func(c *bibtex.Config) {
				c.TargetEditorShare = share
			})
			if err != nil {
				return nil, err
			}
			q := mustQuery(changQuery)
			var cand, answers, parsedBytes int
			var exact bool
			d, err := MedianTime(opt.Repeats, func() error {
				res, err := setup.Engine.Execute(q)
				if err != nil {
					return err
				}
				cand, answers = res.Stats.Candidates, res.Stats.Results
				parsedBytes, exact = res.Stats.ParsedBytes, res.Stats.Exact
				return nil
			})
			if err != nil {
				return nil, err
			}
			if answers != setup.Stats.TargetAsAuthor {
				return nil, fmt.Errorf("E4: wrong answer under %s", sp.name)
			}
			t.Rows = append(t.Rows, []string{
				itoa(n), fmt.Sprintf("%.0f%%", share*100), sp.name,
				fmt.Sprintf("%v", exact), itoa(cand), itoa(answers),
				itoa(parsedBytes), itoa(setup.Doc.Len()), ms(d),
			})
		}
	}
	return t, nil
}

// E5 regenerates Section 6.3: index choices that satisfy the
// unique-realizing-path condition answer queries exactly from the index
// (no filtering), while choices that violate it fall back to a parsed and
// filtered superset — with the same final answers.
func E5(opt Options) (*Table, error) {
	t := &Table{
		ID:     "E5",
		Title:  "exactness under partial indexing (Section 6.3)",
		Header: []string{"spec", "indexed_names", "exact", "candidates", "parsed", "answers", "query_ms"},
		Notes: []string{
			"exact63 = {Reference, Authors, Editors, Last_Name}: every contracted edge has a unique realizing path",
			"superset = {Reference, Key, Last_Name}: Reference→Last_Name is realized via Authors AND Editors",
		},
	}
	n := opt.Sizes[len(opt.Sizes)-1]
	specs := []struct {
		name string
		spec grammar.IndexSpec
	}{
		{"full", grammar.IndexSpec{}},
		{"exact63", grammar.IndexSpec{Names: []string{bibtex.NTReference, bibtex.NTAuthors, bibtex.NTEditors, bibtex.NTLastName}}},
		{"superset", grammar.IndexSpec{Names: []string{bibtex.NTReference, bibtex.NTKey, bibtex.NTLastName}}},
	}
	for _, sp := range specs {
		setup, err := NewBibtexSetup(n, sp.spec, nil)
		if err != nil {
			return nil, err
		}
		q := mustQuery(changQuery)
		var st struct {
			exact                      bool
			cand, parsed, answers, nms int
		}
		d, err := MedianTime(opt.Repeats, func() error {
			res, err := setup.Engine.Execute(q)
			if err != nil {
				return err
			}
			st.exact, st.cand = res.Stats.Exact, res.Stats.Candidates
			st.parsed, st.answers = res.Stats.Parsed, res.Stats.Results
			return nil
		})
		if err != nil {
			return nil, err
		}
		if st.answers != setup.Stats.TargetAsAuthor {
			return nil, fmt.Errorf("E5: wrong answer under %s", sp.name)
		}
		t.Rows = append(t.Rows, []string{
			sp.name, itoa(len(setup.Instance.Names())), fmt.Sprintf("%v", st.exact),
			itoa(st.cand), itoa(st.parsed), itoa(st.answers), ms(d),
		})
	}
	return t, nil
}

// E6 regenerates Section 5.3's observation: a path-variable query (*X) is
// translated to a single plain inclusion, which is cheaper than enumerating
// the concrete paths — the opposite of traditional OODBMS behaviour, where
// variables force traversal of all paths. The full-scan database evaluation
// stands in for that traversal cost.
func E6(opt Options) (*Table, error) {
	t := &Table{
		ID:     "E6",
		Title:  "extended path expressions: star translation vs enumeration vs DB traversal",
		Header: []string{"refs", "star_ms", "enum_ms", "dbscan_ms", "star_vs_enum", "answers"},
		Notes: []string{
			`star: SELECT r ... WHERE r.*X.Last_Name = "Chang"   (one ⊃)`,
			`enum: Authors-path OR Editors-path                   (two chains + union)`,
			"dbscan: full parse+load, then wildcard navigation over every object",
		},
	}
	starQ := mustQuery(`SELECT r FROM References r WHERE r.*X.Last_Name = "Chang"`)
	enumQ := mustQuery(`SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang" OR r.Editors.Name.Last_Name = "Chang"`)
	for _, n := range opt.Sizes {
		setup, err := NewBibtexSetup(n, grammar.IndexSpec{}, nil)
		if err != nil {
			return nil, err
		}
		var starAns int
		starTime, err := MedianTime(opt.Repeats, func() error {
			res, err := setup.Engine.Execute(starQ)
			starAns = res.Stats.Results
			return err
		})
		if err != nil {
			return nil, err
		}
		var enumAns int
		enumTime, err := MedianTime(opt.Repeats, func() error {
			res, err := setup.Engine.Execute(enumQ)
			enumAns = res.Stats.Results
			return err
		})
		if err != nil {
			return nil, err
		}
		dbTime, err := MedianTime(opt.Repeats, func() error {
			_, err := scan.FullScan(setup.Cat, setup.Doc, starQ)
			return err
		})
		if err != nil {
			return nil, err
		}
		if starAns != enumAns || starAns != setup.Stats.TargetAsEither {
			return nil, fmt.Errorf("E6: answers disagree: star %d enum %d truth %d",
				starAns, enumAns, setup.Stats.TargetAsEither)
		}
		t.Rows = append(t.Rows, []string{
			itoa(n), ms(starTime), ms(enumTime), ms(dbTime),
			ratio(starTime, enumTime), itoa(starAns),
		})
	}
	return t, nil
}
