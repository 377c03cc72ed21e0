package index_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"strings"
	"sync"
	"testing"

	"qof/internal/bibtex"
	"qof/internal/engine"
	"qof/internal/grammar"
	"qof/internal/index"
	"qof/internal/region"
	"qof/internal/testutil"
	"qof/internal/text"
)

// indexFile writes a qof index file by hand, so that a test can forge any
// field: header for content, then the token and region tables as given
// (count, then delta-start/length pairs), then the file's CRC, so that what
// is tested is the tables' own checks.
func indexFile(content string, tokenCount uint64, tokens []uint64, regionCount uint64, regions []uint64) []byte {
	b := []byte("QOFIX02\n")
	b = binary.AppendUvarint(b, 1)
	b = append(b, 'd')
	b = binary.AppendUvarint(b, uint64(len(content)))
	b = binary.AppendUvarint(b, uint64(crc32.ChecksumIEEE([]byte(content))))
	b = binary.AppendUvarint(b, tokenCount)
	for _, v := range tokens {
		b = binary.AppendUvarint(b, v)
	}
	b = binary.AppendUvarint(b, 1) // one name
	b = binary.AppendUvarint(b, 1)
	b = append(b, 'R')
	b = binary.AppendUvarint(b, 0) // unscoped
	b = binary.AppendUvarint(b, regionCount)
	for _, v := range regions {
		b = binary.AppendUvarint(b, v)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
}

// TestLoadForgedTables: a table whose count or entries cannot be what Save
// wrote for the document is ErrCorrupt (or a read error where the stream
// ends first), found without allocating what the count promises.
func TestLoadForgedTables(t *testing.T) {
	const content = "alpha beta gamma alpha beta gamma alpha!" // 40 bytes
	tokens := []uint64{0, 5, 6, 4, 5, 5, 6, 5, 6, 4, 5, 5, 6, 5}
	regions := []uint64{0, 5, 6, 4}
	with := func(vs []uint64, i int, v uint64) []uint64 {
		out := append([]uint64(nil), vs...)
		out[i] = v
		return out
	}
	doc := text.NewDocument("d", content)
	if _, err := index.Load(bytes.NewReader(indexFile(content, 7, tokens, 2, regions)), doc); err != nil {
		t.Fatalf("the unforged file does not load: %v", err)
	}
	cut := indexFile(content, 1<<60, nil, 0, nil)
	cut = cut[:len(cut)-9]                                                                              // the stream ends where the first entry would be
	cut = binary.LittleEndian.AppendUint32(cut, crc32.Checksum(cut, crc32.MakeTable(crc32.Castagnoli))) // under a CRC that holds
	for _, tc := range []struct {
		name    string
		data    []byte
		corrupt bool // ErrCorrupt; otherwise any error
	}{
		{"2^60 tokens", indexFile(content, 1<<60, tokens, 2, regions), true},
		{"2^60 tokens and nothing after", cut, false},
		{"one token too few", indexFile(content, 6, tokens[:12], 2, regions), true},
		{"a token one byte short", indexFile(content, 7, with(tokens, 1, 4), 2, regions), true},
		{"a token moved by one", indexFile(content, 7, with(tokens, 2, 7), 2, regions), true},
		{"a token start that overflows", indexFile(content, 7, with(tokens, 2, 1<<63), 2, regions), true},
		{"a token past the document", indexFile(content, 7, with(tokens, 13, 50), 2, regions), true},
		{"no tokens for a document that has some", indexFile(content, 0, nil, 2, regions), true},
		{"2^60 regions", indexFile(content, 7, tokens, 1<<60, regions), false},
		{"a region past the document", indexFile(content, 7, tokens, 2, with(regions, 3, 40)), true},
		{"a region start past the document", indexFile(content, 7, tokens, 2, with(regions, 2, 41)), true},
		{"a region length that overflows", indexFile(content, 7, tokens, 2, with(regions, 3, 1<<64-3)), true},
		{"a region start that overflows", indexFile(content, 7, tokens, 2, with(regions, 2, 1<<64-1)), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := index.Load(bytes.NewReader(tc.data), doc)
			runtime.ReadMemStats(&after)
			if err == nil || (tc.corrupt && !errors.Is(err, index.ErrCorrupt)) {
				t.Fatalf("err = %v, want ErrCorrupt: %v", err, tc.corrupt)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
				t.Errorf("Load allocated %d bytes before refusing a %d-byte file", grew, len(tc.data))
			}
		})
	}
}

// TestLoadBitFlips flips every bit of a saved fixture in turn: Load rejects
// every flipped file, and never panics. The file's CRC catches what the
// tables' own checks let through: a flip in the stored name or in a region
// table.
func TestLoadBitFlips(t *testing.T) {
	_, in := testutil.NewBibInstance(t, 3, grammar.IndexSpec{Names: []string{bibtex.NTReference, bibtex.NTLastName}})
	doc := in.Document()
	var buf bytes.Buffer
	if err := in.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := index.Load(bytes.NewReader(buf.Bytes()), doc); err != nil {
		t.Fatalf("the unflipped file does not load: %v", err)
	}
	for bit := 0; bit < 8*buf.Len(); bit++ {
		data := bytes.Clone(buf.Bytes())
		data[bit/8] ^= 1 << (bit % 8)
		_, err := index.Load(bytes.NewReader(data), doc)
		if err == nil {
			t.Fatalf("bit %d of %d: the flipped file loaded", bit, 8*buf.Len())
		}
		if bit >= 8*len("QOFIX02\n") && !errors.Is(err, index.ErrCorrupt) {
			t.Fatalf("bit %d: %v, want ErrCorrupt", bit, err)
		}
	}
}

// TestDocumentTooLarge lowers the limit below a small corpus and enters an
// index through each of the doors a document comes in by.
func TestDocumentTooLarge(t *testing.T) {
	f := testutil.NewBibFixture(t, 5, grammar.IndexSpec{}, nil)
	var saved bytes.Buffer
	if err := f.In.Save(&saved); err != nil {
		t.Fatal(err)
	}
	refs := f.In.MustRegion(bibtex.NTReference)
	first := f.Doc.Slice(int(refs.At(0).Start), int(refs.At(0).End))

	t.Run("at the limit", func(t *testing.T) {
		defer index.SetMaxDocLen(f.Doc.Len())()
		if _, _, err := f.Cat.Grammar.BuildInstanceContext(context.Background(), f.Doc, f.Spec); err != nil {
			t.Errorf("BuildInstanceContext: %v", err)
		}
		if _, err := index.Load(bytes.NewReader(saved.Bytes()), f.Doc); err != nil {
			t.Errorf("Load: %v", err)
		}
		if _, err := engine.ReplaceRegion(f.Cat, f.In, bibtex.NTReference, refs.At(0), first); err != nil {
			t.Errorf("ReplaceRegion by a text as long: %v", err)
		}
		if _, err := engine.DeleteRegion(f.Cat, f.In, bibtex.NTReference, refs.At(0)); err != nil {
			t.Errorf("DeleteRegion: %v", err)
		}
		// One byte more, and the edits that grow the document are refused.
		longer := strings.Replace(first, "{", "{X", 1)
		if _, err := engine.ReplaceRegion(f.Cat, f.In, bibtex.NTReference, refs.At(0), longer); !errors.Is(err, index.ErrDocumentTooLarge) {
			t.Errorf("ReplaceRegion growing past the limit: err = %v, want ErrDocumentTooLarge", err)
		}
		if _, err := engine.InsertAfter(f.Cat, f.In, bibtex.NTReference, refs.At(0), "\n"+first); !errors.Is(err, index.ErrDocumentTooLarge) {
			t.Errorf("InsertAfter growing past the limit: err = %v, want ErrDocumentTooLarge", err)
		}
	})
	t.Run("over the limit", func(t *testing.T) {
		defer index.SetMaxDocLen(f.Doc.Len() - 1)()
		if _, _, err := f.Cat.Grammar.BuildInstanceContext(context.Background(), f.Doc, f.Spec); !errors.Is(err, index.ErrDocumentTooLarge) {
			t.Errorf("BuildInstanceContext: err = %v, want ErrDocumentTooLarge", err)
		}
		if _, err := index.Load(bytes.NewReader(saved.Bytes()), f.Doc); !errors.Is(err, index.ErrDocumentTooLarge) {
			t.Errorf("Load: err = %v, want ErrDocumentTooLarge", err)
		}
	})
}

// TestLazyStructuresFirstUseConcurrent: eight goroutines make the first use
// of everything the index builds lazily — suffix array, value order — and
// of prefix search and ⊃d beside them, and agree with a goroutine that had it to itself.
// Run under -race.
func TestLazyStructuresFirstUseConcurrent(t *testing.T) {
	spec := grammar.IndexSpec{Names: []string{bibtex.NTReference, bibtex.NTKey, bibtex.NTLastName}}
	_, quiet := testutil.NewBibInstance(t, 40, spec)
	_, in := testutil.NewBibInstance(t, 40, spec)
	keys := func(in *index.Instance) region.Set { return in.MustRegion(bibtex.NTKey) }
	direct := func(in *index.Instance) region.Set {
		s, _ := region.DirectlyIncluding(in.MustRegion(bibtex.NTReference), in.MustRegion(bibtex.NTLastName), in.Sets(), nil, nil)
		return s
	}
	want := []region.Set{
		quiet.Words().PrefixMatchPoints("Ch"),
		quiet.Words().SubstringMatchPoints("and"),
		quiet.Words().SelectPrefix(keys(quiet), "Key00001"),
		direct(quiet),
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := []region.Set{
				in.Words().PrefixMatchPoints("Ch"),
				in.Words().SubstringMatchPoints("and"),
				in.Words().SelectPrefix(keys(in), "Key00001"),
				direct(in),
			}
			for i := range want {
				if !got[i].Equal(want[i]) {
					t.Errorf("lazy structure %d: a concurrent first use answered %v, want %v", i, got[i], want[i])
				}
			}
		}()
	}
	wg.Wait()
	if want[0].IsEmpty() || want[1].IsEmpty() || want[2].IsEmpty() || want[3].IsEmpty() {
		t.Errorf("a probe matched nothing: %v", want)
	}
}
