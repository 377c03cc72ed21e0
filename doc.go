// Package qof is a from-scratch Go reproduction of "Optimizing Queries on
// Files" (Mariano P. Consens and Tova Milo, SIGMOD 1994): a framework that
// gives semi-structured files a database query interface by compiling
// object-database queries into optimized expressions over a text-indexing
// engine.
//
// The implementation lives under internal/ (see DESIGN.md for the full
// inventory):
//
//   - internal/text, internal/index: the text-indexing substrate (word
//     index with PAT-style prefix search, named region indexes,
//     persistence); an index instance is made once and never changes;
//   - internal/region, internal/algebra: the PAT region algebra and its
//     evaluator;
//   - internal/rig, internal/optimizer: region inclusion graphs and the
//     paper's polynomial optimization algorithm (Theorem 3.6);
//   - internal/grammar, internal/db, internal/xsql: structuring schemas,
//     the object-database substrate, and the XSQL-like query language;
//   - internal/compile, internal/engine: query compilation (full and
//     partial indexing, exactness analysis) and two-phase execution;
//   - internal/advisor: Section 7's index selection;
//   - internal/bibtex, internal/logs, internal/sgml, internal/srccode: the
//     built-in file formats with deterministic generators;
//   - internal/scan: the full-scan and grep baselines.
//
// The root package is the public API: Schema (built-ins via BibTeX, Logs,
// SGML, SourceCode, or custom formats via NewSchemaBuilder), File (Index,
// Query, Eval, Save/Load, Replace/InsertAfter/Delete), Corpus, and Advise.
// The qof CLI (cmd/qof) exposes the workflow end to end. The paper's
// experiments are the root package's benchmarks BenchmarkE1 … BenchmarkX2,
// one per table of EXPERIMENTS.md, regenerated with
//
//	go test -run '^$' -bench '^Benchmark(E|X)[0-9]' -timeout 30m .
package qof
