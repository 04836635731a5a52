package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The open-path benchmark pair: how long until a trace file is ready to
// replay. V2 must read the whole stream and seal it into columns — one pass
// that decodes, validates and puts every op, then the seal; V3 maps the
// file and validates the footer and section table only. Each benchmark
// also reports its file size, so scripts/bench.sh records the on-disk
// cost of the two serializations side by side.

func benchOpenTrace(b *testing.B) *Trace {
	b.Helper()
	return sortishTrace(8, 8192, nil)
}

func BenchmarkTraceOpenV2(b *testing.B) {
	tr := benchOpenTrace(b)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "t.nmt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := os.ReadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ReadTrace(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "file-bytes")
}

func BenchmarkTraceOpenV3(b *testing.B) {
	tr := benchOpenTrace(b)
	data, err := EncodeColumnar(tr)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "t.nmt3")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col, err := Open(path)
		if err != nil {
			b.Fatal(err)
		}
		col.Close()
	}
	b.ReportMetric(float64(len(data)), "file-bytes")
}

// BenchmarkCursorNext measures the per-op decode cost of the columnar
// cursor — the incremental price replay pays for reading column bytes
// instead of a decoded []Op.
func BenchmarkCursorNext(b *testing.B) {
	tr := benchOpenTrace(b)
	data, err := EncodeColumnar(tr)
	if err != nil {
		b.Fatal(err)
	}
	col, err := OpenBytes(data)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; {
		for tid := 0; tid < col.Threads() && i < b.N; tid++ {
			cur := col.CursorAt(tid)
			for cur.Next() {
				sink += cur.Cur.Addr
				i++
			}
		}
	}
	_ = sink
}
