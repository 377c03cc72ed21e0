package index

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"qof/internal/region"
	"qof/internal/text"
)

func savedIndex(t *testing.T) (*text.Document, []byte) {
	t.Helper()
	doc := text.NewDocument("t", "alpha beta gamma")
	in := New(NewWordIndex(doc), sets("Word", []region.Region{{Start: 0, End: 5}, {Start: 6, End: 10}}), nil)
	var buf bytes.Buffer
	if err := in.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return doc, buf.Bytes()
}

func TestLoadCorruptMagic(t *testing.T) {
	doc, data := savedIndex(t)
	data[0] ^= 0xff
	if _, err := Load(bytes.NewReader(data), doc); !errors.Is(err, ErrBadMagic) {
		t.Errorf("corrupt magic: err = %v, want ErrBadMagic", err)
	}
}

func TestLoadVersionMismatch(t *testing.T) {
	doc, data := savedIndex(t)
	copy(data, "QOFIX99\n")
	_, err := Load(bytes.NewReader(data), doc)
	if !errors.Is(err, ErrUnsupportedVersion) {
		t.Errorf("future version: err = %v, want ErrUnsupportedVersion", err)
	}
	if err == nil || !strings.Contains(err.Error(), "QOFIX99") {
		t.Errorf("version error should name the offending magic, got %v", err)
	}
}

func TestLoadEmptyStreamEOF(t *testing.T) {
	doc, _ := savedIndex(t)
	if _, err := Load(bytes.NewReader(nil), doc); !errors.Is(err, io.EOF) {
		t.Errorf("empty stream: err = %v, want io.EOF in chain", err)
	}
}

func TestLoadTruncationWrapsEOF(t *testing.T) {
	doc, data := savedIndex(t)
	for cut := 0; cut < len(data); cut++ {
		_, err := Load(bytes.NewReader(data[:cut]), doc)
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes: Load succeeded", cut, len(data))
		}
	}
}
