package trace

import (
	"encoding/binary"
	"io"
	"sync"
	"testing"

	"repro/internal/addr"
)

// digestTrace builds a modest multi-thread trace for the digest tests.
func digestTrace(threads, opsPerThread int) *Trace {
	rec := NewRecorder(threads, DefaultL1(), DefaultCosts())
	for t := 0; t < threads; t++ {
		tp := rec.Thread(t)
		for i := 0; i < opsPerThread; i++ {
			tp.Load(addr.FarBase+addr.Addr(t*opsPerThread+i)*64, 8)
			tp.Compare(3)
		}
		tp.Barrier()
	}
	return rec.Finish()
}

// TestDigestMatchesStreamChecksum pins the digest's defining property: it
// is the trailing checksum WriteTo appends, so an in-memory digest can be
// compared against a file on disk without re-reading the stream.
func TestDigestMatchesStreamChecksum(t *testing.T) {
	tr := digestTrace(4, 200)
	d, err := tr.Digest()
	if err != nil {
		t.Fatal(err)
	}
	var buf writerBuf
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	tail := buf.b[len(buf.b)-8:]
	if got := binary.LittleEndian.Uint64(tail); got != d {
		t.Fatalf("Digest() = %#x, stream checksum = %#x", d, got)
	}
}

// TestDigestMemoized checks repeated and concurrent calls return the same
// value: the memo is computed once and is safe under the concurrent keying
// the serving layer does against one shared trace.
func TestDigestMemoized(t *testing.T) {
	tr := digestTrace(2, 100)
	first, err := tr.Digest()
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	got := make([]uint64, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := tr.Digest()
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			got[i] = d
		}(i)
	}
	wg.Wait()
	for i, d := range got {
		if d != first {
			t.Fatalf("caller %d saw digest %#x, first call saw %#x", i, d, first)
		}
	}
}

// TestDigestErrorMemoized: a trace the serializer rejects keeps returning
// the same error without re-serializing.
func TestDigestErrorMemoized(t *testing.T) {
	tr := &Trace{} // zero threads: refused by writePayload
	if _, err := tr.Digest(); err == nil {
		t.Fatal("digest of a zero-thread trace must fail")
	}
	if _, err := tr.Digest(); err == nil {
		t.Fatal("memoized digest lost the error")
	}
}

// BenchmarkTraceDigestFirst measures the cold digest: a full serialization
// of the stream. Each iteration uses a fresh Trace header sharing the same
// recorded streams, so only the memo is cold.
func BenchmarkTraceDigestFirst(b *testing.B) {
	tr := decoded(b, digestTrace(8, 4096))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := &Trace{Streams: tr.Streams, L1: tr.L1, Costs: tr.Costs, PhaseNames: tr.PhaseNames}
		if _, err := fresh.Digest(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceDigestMemoized measures every call after the first: it
// must be O(1) — a Once check and two field reads — independent of trace
// size.
func BenchmarkTraceDigestMemoized(b *testing.B) {
	tr := digestTrace(8, 4096)
	if _, err := tr.Digest(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Digest(); err != nil {
			b.Fatal(err)
		}
	}
}

// writerBuf is a minimal in-memory io.Writer capturing the stream.
type writerBuf struct{ b []byte }

func (w *writerBuf) Write(p []byte) (int, error) { w.b = append(w.b, p...); return len(p), nil }

var _ io.Writer = (*writerBuf)(nil)
