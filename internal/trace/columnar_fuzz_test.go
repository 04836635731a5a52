package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"strconv"
	"testing"
)

// fuzzSeedColumnar encodes the shared seed traces as v3 plus a set of
// structurally-hostile mutants: truncated sections, misaligned and
// overlapping section offsets, corrupt footers, and implausible op
// counts. Every mutant keeps a valid footer CRC where the attack is
// upstream of it, so the fuzzer starts past the cheap gates.
func fuzzSeedColumnar(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	for _, raw := range fuzzSeedTraces(t) {
		tr, err := ReadTrace(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("seed: %v", err)
		}
		data, err := EncodeColumnar(tr)
		if err != nil {
			t.Fatalf("seed encode: %v", err)
		}
		out = append(out, data)

		// Truncated mid-section.
		out = append(out, data[:len(data)-footerSize-1])

		// Footer magic flipped.
		mut := bytes.Clone(data)
		mut[len(mut)-1] ^= 0xff
		out = append(out, mut)

		// Footer CRC flipped.
		mut = bytes.Clone(data)
		mut[len(mut)-footerSize+48] ^= 0xff
		out = append(out, mut)

		// Misaligned section offset (patch table, refresh footer CRC so
		// the mutation is reached).
		out = append(out, patchTable(data, 16, func(v uint64) uint64 { return v + 1 }))

		// Overlapping sections: point the gaps column at the tags column.
		out = append(out, patchTable(data, 32, func(uint64) uint64 { return 0 }))

		// Implausible op count with a matching footer total.
		huge := patchTable(data, 0, func(uint64) uint64 { return 1 << 60 })
		fOff := len(huge) - footerSize
		binary.LittleEndian.PutUint64(huge[fOff+24:], 1<<60)
		binary.LittleEndian.PutUint64(huge[fOff+48:], crc64.Checksum(huge[fOff:fOff+48], crcTable))
		out = append(out, huge)
	}
	return out
}

// patchTable mutates one u64 field of thread 0's section-table entry and
// refreshes the footer CRC so validation reaches the mutated field.
func patchTable(data []byte, field int, f func(uint64) uint64) []byte {
	mut := bytes.Clone(data)
	le := binary.LittleEndian
	fOff := len(mut) - footerSize
	tableOff := int(le.Uint64(mut[fOff:]))
	v := le.Uint64(mut[tableOff+field:])
	le.PutUint64(mut[tableOff+field:], f(v))
	le.PutUint64(mut[fOff+48:], crc64.Checksum(mut[fOff:fOff+48], crcTable))
	return mut
}

// FuzzOpenColumnar asserts the v3 decode contract on arbitrary bytes:
// OpenBytes either fails with a *DecodeError naming a section and offset
// or yields a Columnar whose cursors, Validate, Verify, and Decode never
// panic, never allocate past verified op counts, and surface every
// malformation as a *DecodeError.
func FuzzOpenColumnar(f *testing.F) {
	for _, seed := range fuzzSeedColumnar(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		col, err := OpenBytes(data)
		if err != nil {
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("OpenBytes error is %T, want *DecodeError: %v", err, err)
			}
			if de.Section == "" {
				t.Fatalf("DecodeError without a section name: %v", de)
			}
			return
		}
		// Structure accepted: every deeper layer must degrade gracefully.
		for tid := 0; tid < col.Threads(); tid++ {
			cur := col.CursorAt(tid)
			n := 0
			for cur.Next() {
				n++
			}
			if n > col.ThreadOps(tid) {
				t.Fatalf("thread %d produced %d ops past its claim %d", tid, n, col.ThreadOps(tid))
			}
			if err := cur.Err(); err != nil {
				var de *DecodeError
				if !errors.As(err, &de) {
					t.Fatalf("cursor error is %T, want *DecodeError: %v", err, err)
				}
			}
		}
		col.Verify()
		if col.Validate() == nil {
			if _, err := col.Decode(); err != nil {
				t.Fatalf("Decode failed on a validated trace: %v", err)
			}
		}
	})
}

// TestOpenColumnarSeeds runs every fuzz seed through the fuzz target's
// assertions without the fuzzing engine — the deterministic tier-1 slice
// of the fuzz contract — and pins that each hostile mutant is rejected.
func TestOpenColumnarSeeds(t *testing.T) {
	seeds := fuzzSeedColumnar(t)
	for i, data := range seeds {
		col, err := OpenBytes(data)
		if err != nil {
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("seed %d: error %T, want *DecodeError: %v", i, err, err)
			}
			continue
		}
		for tid := 0; tid < col.Threads(); tid++ {
			cur := col.CursorAt(tid)
			for cur.Next() {
			}
			if err := cur.Err(); err != nil {
				var de *DecodeError
				if !errors.As(err, &de) {
					t.Fatalf("seed %d: cursor error %T, want *DecodeError", i, err)
				}
			}
		}
	}
	// The unmutated seeds (every 7th entry) must open cleanly; the six
	// mutants that follow each must be rejected by Open or Verify.
	for i := 0; i < len(seeds); i += 7 {
		if _, err := OpenBytes(seeds[i]); err != nil {
			t.Fatalf("clean seed %d rejected: %v", i, err)
		}
		for j := i + 1; j < i+7 && j < len(seeds); j++ {
			col, err := OpenBytes(seeds[j])
			if err == nil {
				err = col.Verify()
			}
			if err == nil {
				t.Fatalf("hostile seed %d accepted by Open and Verify", j)
			}
		}
	}
}

// TestOpenRefusesANarrowedHeader: an opened file answers Digest from its
// footer, so a header field this build's int cannot hold — the L1 ways field
// past 2^31 where an int is 32 bits wide — is refused instead of opened
// narrowed under a digest of other bytes. Where an int holds it, the file
// opens as written.
func TestOpenRefusesANarrowedHeader(t *testing.T) {
	data, err := EncodeColumnar(sampleTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	data[63] |= 0x80 // bit 31 of the ways field at 60
	want := int64(binary.LittleEndian.Uint64(data[60:]))
	col, err := OpenBytes(data)
	if strconv.IntSize == 64 {
		if err != nil || int64(col.Geometry().Ways) != want {
			t.Fatalf("ways %d: opened %v, err %v", want, col, err)
		}
		return
	}
	var de *DecodeError
	if !errors.As(err, &de) || de.Section != "header" || de.Offset != 60 {
		t.Fatalf("ways %d on a %d-bit int: err %v, want a header DecodeError at 60", want, strconv.IntSize, err)
	}
}
