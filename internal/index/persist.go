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
// document has not changed using its length and CRC. The file ends in the
// CRC-32C of everything before it, four bytes little-endian, which Load
// checks before it reads any table: a CRC detects every single-bit error,
// where the tables' own checks let a flipped region entry through.
const indexMagic = "QOFIX02\n"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrIndexMismatch is returned by Load when the persisted index was built
// over a different document than the one supplied.
var ErrIndexMismatch = errors.New("index: persisted index does not match document")

var (
	// ErrBadMagic reports a stream that is not a qof index file at all.
	ErrBadMagic = errors.New("index: bad magic (not a qof index file)")
	// ErrUnsupportedVersion reports a qof index file written by a
	// different, incompatible format version.
	ErrUnsupportedVersion = errors.New("index: unsupported format version")
	// ErrCorrupt reports a qof index file whose tables cannot be what Save
	// wrote for the document: an entry outside it, or a token table that
	// is not its tokenization.
	ErrCorrupt = errors.New("index: corrupt index file")

	errTokenTable = fmt.Errorf("%w: stored token table disagrees with the document", ErrCorrupt)
)

// Save writes the instance (word tokens and all region indices) to w.
func (in *Instance) Save(w io.Writer) error {
	if err := faultinject.Hit(faultinject.PersistSave); err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	sum := crc32.New(castagnoli)
	bw := bufio.NewWriter(io.MultiWriter(w, sum))
	if _, err := bw.WriteString(indexMagic); err != nil {
		return err
	}
	doc := in.Document()
	writeString(bw, doc.Name())
	writeUvarint(bw, uint64(doc.Len()))
	writeUvarint(bw, uint64(checksum(doc.Content())))

	// The token table is the document's tokenization, so it is streamed
	// from the text; the index itself keeps no table to copy out.
	content := doc.Content()
	writeUvarint(bw, uint64(in.words.TokenCount()))
	prev := 0
	for tok, ok := text.NextToken(content, 0); ok; tok, ok = text.NextToken(content, tok.End) {
		writeUvarint(bw, uint64(tok.Start-prev))
		writeUvarint(bw, uint64(tok.Len()))
		prev = tok.Start
	}

	names := in.Names()
	writeUvarint(bw, uint64(len(names)))
	for _, name := range names {
		writeString(bw, name)
		writeString(bw, in.scopes[name])
		s := in.regions[name]
		writeUvarint(bw, uint64(s.Len()))
		prev := int32(0)
		for _, r := range s.Regions() {
			writeUvarint(bw, uint64(r.Start-prev))
			writeUvarint(bw, uint64(r.Len()))
			prev = r.Start
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(nil, sum.Sum32()))
	return err
}

// Load reads an instance previously written by Save and re-attaches it to
// doc. It returns ErrIndexMismatch if doc differs from the document the
// index was built over, and ErrCorrupt if the file's CRC does not match.
func Load(r io.Reader, doc *text.Document) (*Instance, error) {
	if err := faultinject.Hit(faultinject.PersistLoad); err != nil {
		return nil, fmt.Errorf("index: load: %w", err)
	}
	magic := make([]byte, len(indexMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("index: reading magic: %w", err)
	}
	if string(magic) != indexMagic {
		if bytes.HasPrefix(magic, []byte("QOFIX")) {
			return nil, fmt.Errorf("%w: got %q, want %q", ErrUnsupportedVersion, magic, indexMagic)
		}
		return nil, ErrBadMagic
	}
	rest, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("index: reading: %w", err)
	}
	if len(rest) < 4 {
		return nil, fmt.Errorf("index: reading file checksum: %w", io.ErrUnexpectedEOF)
	}
	body := rest[:len(rest)-4]
	if crc32.Update(crc32.Checksum(magic, castagnoli), castagnoli, body) != binary.LittleEndian.Uint32(rest[len(body):]) {
		return nil, fmt.Errorf("%w: file checksum mismatch", ErrCorrupt)
	}
	br := bytes.NewReader(body)
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
	if int(docLen) != doc.Len() || uint32(sum) != checksum(doc.Content()) {
		return nil, ErrIndexMismatch
	}

	nTok, err := readUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("index: reading token count: %w", err)
	}
	// The stored table must be the document's tokenization: each entry is
	// checked against the token the build finds and none is held, so a
	// forged count allocates nothing.
	seen, prev := uint64(0), uint64(0)
	words, err := buildWordIndex(doc, func(tok text.Token) error {
		if seen++; seen > nTok {
			return errTokenTable
		}
		ds, ln, err := readEntry(br)
		if err != nil {
			return fmt.Errorf("index: reading token table: %w", err)
		}
		if prev+ds != uint64(tok.Start) || ln != uint64(tok.Len()) {
			return errTokenTable
		}
		prev = uint64(tok.Start)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if seen != nTok {
		return nil, errTokenTable
	}
	sets, scopes := make(map[string]region.Set), make(map[string]string)
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
			scopes[name] = scope
		}
		cnt, err := readUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("index: reading region count for %q: %w", name, err)
		}
		// A set rarely holds more regions than the document has bytes;
		// a forged count past that grows only as entries validate.
		rs := make([]region.Region, 0, min(cnt, docLen+1))
		prev := uint64(0)
		for j := uint64(0); j < cnt; j++ {
			ds, ln, err := readEntry(br)
			if err != nil {
				return nil, fmt.Errorf("index: reading region table for %q: %w", name, err)
			}
			if ds > docLen-prev || ln > docLen-prev-ds {
				return nil, fmt.Errorf("%w: region table for %q", ErrCorrupt, name)
			}
			prev += ds
			rs = append(rs, region.Of(int(prev), int(prev+ln)))
		}
		sets[name] = region.FromRegions(rs)
	}
	return New(words, sets, scopes), nil
}

func writeUvarint(w *bufio.Writer, v uint64) {
	w.Write(binary.AppendUvarint(w.AvailableBuffer(), v))
}

func writeString(w *bufio.Writer, s string) {
	writeUvarint(w, uint64(len(s)))
	w.WriteString(s)
}

// readUvarint takes the one-byte varints — nearly every token delta and
// length — straight from the buffer.
func readUvarint(r *bytes.Reader) (uint64, error) {
	if b, err := r.ReadByte(); err != nil || b < 0x80 {
		return uint64(b), err
	}
	r.UnreadByte() // cannot fail after a ReadByte
	return binary.ReadUvarint(r)
}

// readEntry reads one table entry: a start delta and a length.
func readEntry(r *bytes.Reader) (ds, ln uint64, err error) {
	if ds, err = readUvarint(r); err == nil {
		ln, err = readUvarint(r)
	}
	return ds, ln, err
}

// checksum is the CRC of the document's text, taken through a small buffer
// so that the text is not copied whole.
func checksum(s string) uint32 {
	var buf [32 << 10]byte
	sum := uint32(0)
	for len(s) > 0 {
		n := copy(buf[:], s)
		sum = crc32.Update(sum, crc32.IEEETable, buf[:n])
		s = s[n:]
	}
	return sum
}

func readString(r *bytes.Reader) (string, error) {
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
