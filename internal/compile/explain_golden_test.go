package compile_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qof/internal/qgen"
	"qof/internal/xsql"
)

var update = flag.Bool("update", false, "rewrite the Explain golden files")

// explainCorpusSeed pins the generated corpora so plans (and their printed
// costs) are stable across runs.
const explainCorpusSeed = 1994

// explainWorkload lists, per domain, queries whose plans cover the
// interesting shapes: exact index chains, superset candidates under partial
// indexing, boolean composition, star/any variables, index-only projection,
// region-level joins, and trivially empty paths.
var explainWorkload = map[string][]string{
	"bibtex": {
		`SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`,
		`SELECT r FROM References r WHERE r.Year = "1982" OR r.Authors.Name.Last_Name = "Corliss"`,
		`SELECT r.Key FROM References r WHERE r.Authors.Name.Last_Name = "Chang"`,
		`SELECT r FROM References r WHERE r.Authors.Name.Last_Name = r.Editors.Name.Last_Name`,
		`SELECT r FROM References r WHERE r.*X.Last_Name = "Tompa"`,
		`SELECT r FROM References r WHERE r.Key.Authors = "x"`,
		`SELECT r FROM References r LIMIT 3`,
		`SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "Chang" LIMIT 1`,
	},
	"sgml": {
		`SELECT s FROM Sections s WHERE s.Title = "section 1-1"`,
		`SELECT s FROM Sections s WHERE s.*X.Para CONTAINS "needle"`,
		`SELECT s.Title FROM Sections s WHERE s.Para CONTAINS "needle"`,
		`SELECT d FROM Docs d WHERE d.Section.Title STARTS "section"`,
		`SELECT s FROM Sections s WHERE s.*X.Para CONTAINS "needle" LIMIT 2`,
	},
	"logs": {
		`SELECT e FROM Entries e WHERE e.Level = "ERROR"`,
		`SELECT e FROM Entries e WHERE e.Level = "ERROR" AND e.Proc.Program = "nginx"`,
		`SELECT e.Message FROM Entries e WHERE e.Proc.Program = "nginx"`,
		`SELECT e FROM Entries e WHERE e.?X.Pid = "100"`,
		`SELECT e FROM Entries e WHERE e.Level = "ERROR" LIMIT 5`,
	},
}

// TestExplainGolden renders Plan.Explain for a fixed workload per domain
// under every index specification and compares against golden files. Run
// with -update to regenerate them after an intentional planner change.
func TestExplainGolden(t *testing.T) {
	for _, d := range qgen.Domains(explainCorpusSeed) {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			var sb strings.Builder
			for si, spec := range d.Specs {
				in, _, err := d.Cat.Grammar.BuildInstance(d.Doc, spec)
				if err != nil {
					t.Fatalf("spec %d: %v", si, err)
				}
				fmt.Fprintf(&sb, "==== spec %d: %s\n", si, specLabel(spec.Names, spec.Scoped != nil))
				for _, src := range explainWorkload[d.Name] {
					plan, err := d.Cat.Compile(xsql.MustParse(src), in)
					if err != nil {
						t.Fatalf("spec %d: Compile(%s): %v", si, src, err)
					}
					sb.WriteString(plan.Explain())
					sb.WriteString("\n")
				}
			}
			got := sb.String()

			path := filepath.Join("testdata", "explain", d.Name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden (run `go test ./internal/compile -run TestExplainGolden -update` to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("Explain output drifted from %s:\n%s\nrerun with -update if the change is intentional", path, firstDiff(got, string(want)))
			}
		})
	}
}

// specLabel summarizes an index spec for the golden file headers.
func specLabel(names []string, scoped bool) string {
	if len(names) == 0 && !scoped {
		return "full indexing"
	}
	label := strings.Join(names, ",")
	if scoped {
		label += " (+scoped)"
	}
	return label
}

// firstDiff points at the first line where got and want diverge.
func firstDiff(got, want string) string {
	gl := strings.Split(got, "\n")
	wl := strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return fmt.Sprintf("line %d:\n  got:  %q\n  want: %q", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("lengths differ: got %d lines, want %d lines", len(gl), len(wl))
}
