package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
)

// TestDigestMatchesStreamChecksum pins the digest's defining property: it
// is the trailing checksum WriteTo appends, so an in-memory digest can be
// compared against a file on disk without re-reading the stream. A trace
// no stream holds is refused by both alike.
func TestDigestMatchesStreamChecksum(t *testing.T) {
	for _, c := range corpusRefs(t) {
		d, derr := c.fresh().Digest()
		var v2 bytes.Buffer
		_, werr := c.fresh().WriteTo(&v2)
		if fmt.Sprint(derr) != fmt.Sprint(werr) || werr == nil && binary.LittleEndian.Uint64(v2.Bytes()[v2.Len()-8:]) != d {
			t.Fatalf("%s: Digest = %#x, %v; WriteTo wrote %d bytes, %v", c.name, d, derr, v2.Len(), werr)
		}
	}
}

// TestDigestMemoized checks repeated and concurrent calls return the same
// value: the memo is computed once and is safe under the concurrent keying
// the serving layer does against one shared trace.
func TestDigestMemoized(t *testing.T) {
	tr := sortishTrace(2, 128, nil)
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
	tr := decoded(b, sortishTrace(8, 4096, nil))
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
	tr := sortishTrace(8, 4096, nil)
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
