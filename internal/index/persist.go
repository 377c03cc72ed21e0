package index

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"qof/internal/faultinject"
	"qof/internal/region"
	"qof/internal/text"
)

// On-disk index format. All integers are unsigned varints; token and region
// start positions are delta-encoded against the previous entry, which keeps
// indexes for large documents compact. The document text itself is not
// stored: the loader re-attaches the index to a document and verifies the
// document has not changed using its length and CRC.
const indexMagic = "QOFIX01\n"

// ErrIndexMismatch is returned by Load when the persisted index was built
// over a different document than the one supplied.
var ErrIndexMismatch = errors.New("index: persisted index does not match document")

var (
	// ErrBadMagic reports a stream that is not a qof index file at all.
	ErrBadMagic = errors.New("index: bad magic (not a qof index file)")
	// ErrUnsupportedVersion reports a qof index file written by a
	// different, incompatible format version.
	ErrUnsupportedVersion = errors.New("index: unsupported format version")
)

// Save writes the instance (word tokens and all region indices) to w.
func (in *Instance) Save(w io.Writer) error {
	if err := faultinject.Hit(faultinject.PersistSave); err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(indexMagic); err != nil {
		return err
	}
	doc := in.Document()
	writeString(bw, doc.Name())
	writeUvarint(bw, uint64(doc.Len()))
	writeUvarint(bw, uint64(crc32.ChecksumIEEE([]byte(doc.Content()))))

	toks := in.words.Tokens()
	writeUvarint(bw, uint64(len(toks)))
	prev := 0
	for _, t := range toks {
		writeUvarint(bw, uint64(t.Start-prev))
		writeUvarint(bw, uint64(t.End-t.Start))
		prev = t.Start
	}

	names := in.Names()
	writeUvarint(bw, uint64(len(names)))
	for _, name := range names {
		writeString(bw, name)
		writeString(bw, in.scopes[name])
		s := in.regions[name]
		writeUvarint(bw, uint64(s.Len()))
		prev := 0
		for _, r := range s.Regions() {
			writeUvarint(bw, uint64(r.Start-prev))
			writeUvarint(bw, uint64(r.End-r.Start))
			prev = r.Start
		}
	}
	return bw.Flush()
}

// Load reads an instance previously written by Save and re-attaches it to
// doc. It returns ErrIndexMismatch if doc differs from the document the
// index was built over.
func Load(r io.Reader, doc *text.Document) (*Instance, error) {
	if err := faultinject.Hit(faultinject.PersistLoad); err != nil {
		return nil, fmt.Errorf("index: load: %w", err)
	}
	br := bufio.NewReader(r)
	magic := make([]byte, len(indexMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("index: reading magic: %w", err)
	}
	if string(magic) != indexMagic {
		if bytes.HasPrefix(magic, []byte("QOFIX")) {
			return nil, fmt.Errorf("%w: got %q, want %q", ErrUnsupportedVersion, magic, indexMagic)
		}
		return nil, ErrBadMagic
	}
	if _, err := readString(br); err != nil { // stored name is informational
		return nil, fmt.Errorf("index: reading document name: %w", err)
	}
	docLen, err := readUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("index: reading document length: %w", err)
	}
	sum, err := readUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("index: reading document checksum: %w", err)
	}
	if int(docLen) != doc.Len() || uint32(sum) != crc32.ChecksumIEEE([]byte(doc.Content())) {
		return nil, ErrIndexMismatch
	}

	nTok, err := readUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("index: reading token count: %w", err)
	}
	toks := make([]text.Token, nTok)
	prev := uint64(0)
	for i := range toks {
		ds, err := readUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("index: reading token table: %w", err)
		}
		ln, err := readUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("index: reading token table: %w", err)
		}
		start := prev + ds
		if start+ln > docLen {
			return nil, errors.New("index: corrupt token table")
		}
		toks[i] = text.Token{Start: int(start), End: int(start + ln)}
		prev = start
	}
	in := &Instance{
		words:   newWordIndex(doc, toks),
		regions: make(map[string]region.Set),
		scopes:  make(map[string]string),
	}

	nNames, err := readUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("index: reading class count: %w", err)
	}
	for i := uint64(0); i < nNames; i++ {
		name, err := readString(br)
		if err != nil {
			return nil, fmt.Errorf("index: reading class name: %w", err)
		}
		scope, err := readString(br)
		if err != nil {
			return nil, fmt.Errorf("index: reading scope for %q: %w", name, err)
		}
		if scope != "" {
			in.scopes[name] = scope
		}
		cnt, err := readUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("index: reading region count for %q: %w", name, err)
		}
		rs := make([]region.Region, cnt)
		prev := uint64(0)
		for j := range rs {
			ds, err := readUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("index: reading region table for %q: %w", name, err)
			}
			ln, err := readUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("index: reading region table for %q: %w", name, err)
			}
			start := prev + ds
			if start+ln > docLen {
				return nil, fmt.Errorf("index: corrupt region table for %q", name)
			}
			rs[j] = region.Region{Start: int(start), End: int(start + ln)}
			prev = start
		}
		in.install(name, region.FromRegions(rs))
	}
	return in, nil
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func writeString(w *bufio.Writer, s string) {
	writeUvarint(w, uint64(len(s)))
	w.WriteString(s)
}

func readUvarint(r *bufio.Reader) (uint64, error) {
	return binary.ReadUvarint(r)
}

func readString(r *bufio.Reader) (string, error) {
	n, err := readUvarint(r)
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", errors.New("index: unreasonable string length")
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
