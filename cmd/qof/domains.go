package main

import (
	"fmt"

	"qof"
	"qof/internal/bibtex"
	"qof/internal/compile"
	"qof/internal/logs"
	"qof/internal/sgml"
	"qof/internal/srccode"
)

// domain bundles a structuring schema with its generator, so every
// subcommand can be pointed at one of the built-in file formats.
type domain struct {
	name     string
	catalog  func() *compile.Catalog
	schema   func() *qof.Schema // the same format behind the public API
	generate func(n int, seed int64) string
	sample   string
	classes  string // help text: class bindings
}

var domains = map[string]domain{
	"bibtex": {
		name:    "bibtex",
		catalog: bibtex.Catalog,
		schema:  qof.BibTeX,
		generate: func(n int, seed int64) string {
			cfg := bibtex.DefaultConfig(n)
			cfg.Seed = seed
			out, _ := bibtex.Generate(cfg)
			return out
		},
		sample:  bibtex.SampleEntry,
		classes: "References (Reference regions)",
	},
	"logs": {
		name:    "logs",
		catalog: logs.Catalog,
		schema:  qof.Logs,
		generate: func(n int, seed int64) string {
			cfg := logs.DefaultConfig(n)
			cfg.Seed = seed
			out, _ := logs.Generate(cfg)
			return out
		},
		sample:  "[1994-05-24 12:00:01] ERROR nginx(233): connection refused from host42 code=7\n",
		classes: "Entries (Entry regions)",
	},
	"src": {
		name:    "src",
		catalog: srccode.Catalog,
		schema:  qof.SourceCode,
		generate: func(n int, seed int64) string {
			cfg := srccode.DefaultConfig(n)
			cfg.Seed = seed
			out, _ := srccode.Generate(cfg)
			return out
		},
		sample:  "func compute(alpha int) {\n  # adds things\n  do helper(alpha);\n}\n",
		classes: "Decls (Decl regions: functions and structs)",
	},
	"sgml": {
		name:    "sgml",
		catalog: sgml.Catalog,
		schema:  qof.SGML,
		generate: func(n int, seed int64) string {
			// n is interpreted as nesting depth for documents.
			cfg := sgml.DefaultConfig(max(n, 2), 3)
			cfg.Seed = seed
			out, _ := sgml.Generate(cfg)
			return out
		},
		sample:  "<doc><sec><t>intro</t><p>hello world</p></sec></doc>",
		classes: "Docs (Doc regions), Sections (Section regions)",
	},
}

func lookupDomain(name string) (domain, error) {
	d, ok := domains[name]
	if !ok {
		return domain{}, fmt.Errorf("unknown domain %q (have bibtex, logs, sgml, src)", name)
	}
	return d, nil
}
