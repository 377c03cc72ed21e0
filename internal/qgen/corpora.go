package qgen

import (
	"fmt"

	"qof/internal/bibtex"
	"qof/internal/compile"
	"qof/internal/grammar"
	"qof/internal/logs"
	"qof/internal/sgml"
	"qof/internal/text"
)

// Domain bundles everything the generators and the differential harness need
// for one structuring schema: a small random corpus, the catalog, word pools
// skewed towards values that actually occur in the corpus (so generated
// queries have non-empty answers often enough to be interesting), and a
// variety of index specifications covering full, partial and scoped
// indexing.
type Domain struct {
	Name    string
	Cat     *compile.Catalog
	Doc     *text.Document
	Classes []string // bound XSQL classes, primary class first

	// Words are constants for =/CONTAINS comparisons and σ selections;
	// Prefixes for STARTS; Fragments for match() leaves. Each pool mixes
	// hits and guaranteed misses.
	Words     []string
	Prefixes  []string
	Fragments []string

	// Specs are the indexing choices the harness cycles through.
	Specs []grammar.IndexSpec
}

// Domains builds the three paper domains with corpora derived from seed.
func Domains(seed int64) []*Domain {
	return []*Domain{BibTeX(seed), SGML(seed), Logs(seed)}
}

// BibTeX builds a small bibliography domain. Target shares are raised well
// above the paper's 1%/5% so that a ten-reference corpus still contains
// Chang rows to find.
func BibTeX(seed int64) *Domain {
	cfg := bibtex.DefaultConfig(10)
	cfg.Seed = seed
	cfg.TargetAuthorShare = 0.25
	cfg.TargetEditorShare = 0.35
	src, _ := bibtex.Generate(cfg)
	full := bibtex.Grammar().FullIndexSpec()
	return &Domain{
		Name:    "bibtex",
		Cat:     bibtex.Catalog(),
		Doc:     text.NewDocument(fmt.Sprintf("qgen-%d.bib", seed), src),
		Classes: []string{bibtex.ClassReferences},
		Words: []string{
			"Chang", "Corliss", "Griewank", "Tompa", "SIAM", "the",
			"system", "taylor", "term001", "1982", "Key000001", "Zebra",
		},
		Prefixes:  []string{"Ch", "Cor", "Key00", "term", "19", "zz"},
		Fragments: []string{"and", "AUTHOR", "\"", "Ch", "198", "@INCOLLECTION{", "never-there"},
		Specs: []grammar.IndexSpec{
			full,
			{Names: []string{bibtex.NTReference, bibtex.NTKey, bibtex.NTLastName}},
			{Names: []string{bibtex.NTReference, bibtex.NTAuthors, bibtex.NTEditors, bibtex.NTLastName}},
			{Names: []string{bibtex.NTReference}},
			{
				Names:  []string{bibtex.NTReference, bibtex.NTAuthors},
				Scoped: []grammar.ScopedName{{Name: bibtex.NTLastName, Within: bibtex.NTAuthors}},
			},
			// A scope the instance does not index: only a parse sees it.
			{
				Names:  []string{bibtex.NTReference},
				Scoped: []grammar.ScopedName{{Name: bibtex.NTName, Within: bibtex.NTEditors}},
			},
		},
	}
}

// SGML builds a small nested-section domain; its cyclic RIG (Section →
// Section) exercises the self-nesting rewrite cases.
func SGML(seed int64) *Domain {
	cfg := sgml.DefaultConfig(3, 2)
	cfg.Seed = seed
	cfg.TargetShare = 0.3
	src, _ := sgml.Generate(cfg)
	full := sgml.Grammar().FullIndexSpec()
	return &Domain{
		Name:    "sgml",
		Cat:     sgml.Catalog(),
		Doc:     text.NewDocument(fmt.Sprintf("qgen-%d.sgml", seed), src),
		Classes: []string{sgml.ClassSections, sgml.ClassDocs},
		Words: []string{
			"needle", "section", "w01", "w42", "1", "2", "absent",
		},
		Prefixes:  []string{"need", "sec", "w0", "zz"},
		Fragments: []string{"<sec>", "<t>", "needle", "w1", "</p>", "never-there"},
		Specs: []grammar.IndexSpec{
			full,
			{Names: []string{sgml.NTDoc, sgml.NTSection, sgml.NTPara}},
			{Names: []string{sgml.NTSection, sgml.NTTitle}},
			{Names: []string{sgml.NTDoc, sgml.NTSection}},
			// A scope the instance does not index, and which nests.
			{
				Names:  []string{sgml.NTPara},
				Scoped: []grammar.ScopedName{{Name: sgml.NTTitle, Within: sgml.NTSection}},
			},
		},
	}
}

// Logs builds a small server-log domain with raised error and target-program
// shares.
func Logs(seed int64) *Domain {
	cfg := logs.DefaultConfig(25)
	cfg.Seed = seed
	cfg.ErrorShare = 0.3
	cfg.TargetShare = 0.3
	src, _ := logs.Generate(cfg)
	full := logs.Grammar().FullIndexSpec()
	return &Domain{
		Name:    "logs",
		Cat:     logs.Catalog(),
		Doc:     text.NewDocument(fmt.Sprintf("qgen-%d.log", seed), src),
		Classes: []string{logs.ClassEntries},
		Words: []string{
			"nginx", "ERROR", "INFO", "cron", "sshd", "timeout", "cache",
			"host03", "absent",
		},
		Prefixes:  []string{"ngin", "ERR", "host", "zz"},
		Fragments: []string{"ERROR", "(", "1994-", "refused", "never-there"},
		Specs: []grammar.IndexSpec{
			full,
			{Names: []string{logs.NTEntry, logs.NTProgram, logs.NTLevel}},
			{Names: []string{logs.NTEntry, logs.NTMessage}},
			{Names: []string{logs.NTEntry}},
		},
	}
}
