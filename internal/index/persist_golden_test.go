package index_test

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"qof/internal/bibtex"
	"qof/internal/grammar"
	"qof/internal/index"
	"qof/internal/qgen"
	"qof/internal/testutil"
)

// updateGolden rewrites the golden testdata/*.qofix files (not
// bib_partial_v1.qofix, the last file of format QOFIX01). The committed
// files were written with it when the format gained its file CRC; the
// tables in them are byte for byte what the files before it held.
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden index files")

// goldenFixtures are the instances whose Save output is pinned: the
// testutil bibliography under a full, the paper's partial and a scoped
// spec, and the two other qgen domains fully indexed.
func goldenFixtures(t *testing.T) map[string]*index.Instance {
	t.Helper()
	bibSpecs := map[string]grammar.IndexSpec{
		"bib_full":    bibtex.Grammar().FullIndexSpec(),
		"bib_partial": {Names: []string{bibtex.NTReference, bibtex.NTKey, bibtex.NTLastName}},
		"bib_scoped": {
			Names:  []string{bibtex.NTReference, bibtex.NTAuthors},
			Scoped: []grammar.ScopedName{{Name: bibtex.NTLastName, Within: bibtex.NTAuthors}},
		},
	}
	out := make(map[string]*index.Instance)
	for name, spec := range bibSpecs {
		_, out[name] = testutil.NewBibInstance(t, 30, spec)
	}
	for _, d := range []*qgen.Domain{qgen.SGML(1), qgen.Logs(1)} {
		in, _, err := d.Cat.Grammar.BuildInstance(d.Doc, d.Specs[0])
		if err != nil {
			t.Fatal(err)
		}
		out["qgen_"+d.Name+"_full"] = in
	}
	return out
}

// TestSaveMatchesGolden: Save writes, byte for byte, the file the previous
// layout wrote, and a file that layout wrote loads into an instance that
// saves back to the same bytes.
func TestSaveMatchesGolden(t *testing.T) {
	for name, in := range goldenFixtures(t) {
		path := filepath.Join("testdata", name+".qofix")
		var buf bytes.Buffer
		if err := in.Save(&buf); err != nil {
			t.Fatalf("%s: Save: %v", name, err)
		}
		if *updateGolden {
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		golden, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), golden) {
			t.Errorf("%s: Save wrote %d bytes that differ from the %d golden ones", name, buf.Len(), len(golden))
		}
		loaded, err := index.Load(bytes.NewReader(golden), in.Document())
		if err != nil {
			t.Fatalf("%s: loading the golden file: %v", name, err)
		}
		var again bytes.Buffer
		if err := loaded.Save(&again); err != nil {
			t.Fatalf("%s: Save after Load: %v", name, err)
		}
		if !bytes.Equal(again.Bytes(), golden) {
			t.Errorf("%s: the loaded golden file saves back differently", name)
		}
	}
}

// TestLoadRefusesVersion1: a file of the format before the file CRC is
// refused, never read: there is one reader, and it reads QOFIX02.
func TestLoadRefusesVersion1(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "bib_partial_v1.qofix"))
	if err != nil {
		t.Fatal(err)
	}
	doc := goldenFixtures(t)["bib_partial"].Document()
	if _, err := index.Load(bytes.NewReader(old), doc); !errors.Is(err, index.ErrUnsupportedVersion) {
		t.Errorf("loading a QOFIX01 file: %v, want ErrUnsupportedVersion", err)
	}
}
