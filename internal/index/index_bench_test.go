package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"qof/internal/region"
	"qof/internal/text"
)

// benchDoc builds an n-word document with a skewed vocabulary.
func benchDoc(nWords int) *text.Document {
	rng := rand.New(rand.NewSource(3))
	var sb strings.Builder
	for i := 0; i < nWords; i++ {
		fmt.Fprintf(&sb, "w%03d ", rng.Intn(700))
	}
	return text.NewDocument("bench", sb.String())
}

// BenchmarkWordIndexBuild also reports what one built index retains, per
// token: the heap's growth across a build, after a collection each side.
func BenchmarkWordIndexBuild(b *testing.B) {
	doc := benchDoc(100000)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	x := NewWordIndex(doc)
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	b.SetBytes(int64(doc.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewWordIndex(doc)
	}
	b.ReportMetric(retained/float64(x.TokenCount()), "retained-B/token")
	runtime.KeepAlive(x)
}

func BenchmarkMatchPoints(b *testing.B) {
	x := NewWordIndex(benchDoc(100000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.MatchPoints("w042")
	}
}

func BenchmarkPrefixMatchPoints(b *testing.B) {
	x := NewWordIndex(benchDoc(100000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.PrefixMatchPoints("w04")
	}
}

func BenchmarkSelectContaining(b *testing.B) {
	doc := benchDoc(100000)
	x := NewWordIndex(doc)
	// 1000 disjoint regions of ~100 words each.
	var rs []region.Region
	step := doc.Len() / 1000
	for i := 0; i < 1000; i++ {
		rs = append(rs, region.Of(i*step, i*step+step-1))
	}
	set := region.FromRegions(rs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.SelectContaining(set, "w042")
	}
}

func BenchmarkSaveLoad(b *testing.B) {
	doc := benchDoc(50000)
	var rs []region.Region
	step := doc.Len() / 2000
	for i := 0; i < 2000; i++ {
		rs = append(rs, region.Of(i*step, i*step+step-1))
	}
	in := New(NewWordIndex(doc), sets("R", rs), nil)
	var buf bytes.Buffer
	if err := in.Save(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load(bytes.NewReader(data), doc); err != nil {
			b.Fatal(err)
		}
	}
}

// nameInstance builds the shape the Last_Name index has at 20 000
// references: n one-word records drawn from k distinct values, each record a
// region of the indexed name "Name", and a "Record" region per ten names.
func nameInstance(n, k int) *Instance {
	rng := rand.New(rand.NewSource(14))
	var sb strings.Builder
	var names, records []region.Region
	for i := 0; i < n; i++ {
		if i%10 == 0 {
			records = append(records, region.Of(sb.Len(), sb.Len()))
		}
		start := sb.Len()
		fmt.Fprintf(&sb, "Name%04d", rng.Intn(k))
		names = append(names, region.Of(start, sb.Len()))
		sb.WriteString(", ")
		records[len(records)-1].End = int32(sb.Len())
	}
	return New(NewWordIndex(text.NewDocument("names", sb.String())), sets("Name", names, "Record", records), nil)
}

// BenchmarkSelectEqualsName is σ_= over a whole indexed name, 70 000 regions
// of 200 values: one run of the value order (built outside the loop).
func BenchmarkSelectEqualsName(b *testing.B) {
	in := nameInstance(70000, 200)
	x, names := in.Words(), in.MustRegion("Name")
	x.SelectEquals(names, "Name0042")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.SelectEquals(names, "Name0042")
	}
}

// BenchmarkSelectPrefixName is σ_prefix (XSQL's STARTS) over the same name.
func BenchmarkSelectPrefixName(b *testing.B) {
	in := nameInstance(70000, 200)
	x, names := in.Words(), in.MustRegion("Name")
	x.SelectPrefix(names, "Name004")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.SelectPrefix(names, "Name004")
	}
}

// BenchmarkSelectContainingSparse is σ_w of 7 000 disjoint records for a
// word with about 350 occurrences: the postings probe the records.
func BenchmarkSelectContainingSparse(b *testing.B) {
	in := nameInstance(70000, 200)
	x, records := in.Words(), in.MustRegion("Record")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.SelectContaining(records, "Name0042")
	}
}
