package core

import (
	"encoding/binary"
	"testing"

	"repro/internal/addr"
	"repro/internal/trace"
	"repro/internal/units"
)

// Fuzz targets complement the testing/quick properties: the native fuzzer
// mutates raw byte corpora toward branch coverage, which finds boundary
// bugs (equal keys at part boundaries, degenerate run shapes) that
// uniform random generation rarely hits. `go test` runs the seed corpus;
// `go test -fuzz=FuzzX` explores further.

// decodeKeys turns fuzz bytes into a key slice with deliberately high
// collision probability (keys drawn from few distinct byte patterns).
func decodeKeys(data []byte) []uint64 {
	n := len(data) / 2
	if n == 0 {
		return nil
	}
	keys := make([]uint64, n)
	for i := 0; i < n; i++ {
		b := data[2*i]
		mode := data[2*i+1] % 4
		switch mode {
		case 0:
			keys[i] = uint64(b)
		case 1:
			keys[i] = uint64(b) << 56
		case 2:
			keys[i] = ^uint64(0) - uint64(b)
		default:
			keys[i] = uint64(b) * 0x0101010101010101
		}
	}
	return keys
}

func FuzzNMSort(f *testing.F) {
	f.Add([]byte{1, 0, 2, 1, 3, 2, 255, 3})
	f.Add(make([]byte, 300))
	f.Add([]byte("the quick brown fox jumps over the lazy dog repeatedly and then some"))
	f.Fuzz(func(t *testing.T, data []byte) {
		keys := decodeKeys(data)
		if len(keys) > 1<<14 {
			keys = keys[:1<<14]
		}
		p := 1 + len(data)%7
		e := NewEnv(p, 32*units.KiB, nil, 1)
		a := e.AllocFar(len(keys))
		copy(a.D, keys)
		sum := Checksum(a.D)
		NMSort(e, a, NMOptions{})
		if !IsSorted(a.D) || Checksum(a.D) != sum {
			t.Fatalf("NMSort corrupted %d keys (p=%d)", len(keys), p)
		}
	})
}

func FuzzGNUSortExact(f *testing.F) {
	f.Add([]byte{9, 1, 9, 1, 9, 1, 9, 1})
	f.Add([]byte{0, 0, 255, 2, 128, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		keys := decodeKeys(data)
		if len(keys) > 1<<13 {
			keys = keys[:1<<13]
		}
		p := 1 + len(data)%9
		e := NewEnv(p, units.MiB, nil, 1)
		a := e.AllocFar(len(keys))
		copy(a.D, keys)
		sum := Checksum(a.D)
		GNUSortOpt(e, a, GNUOptions{Exact: true})
		if !IsSorted(a.D) || Checksum(a.D) != sum {
			t.Fatalf("exact GNUSort corrupted %d keys (p=%d)", len(keys), p)
		}
	})
}

func FuzzExactSelect(f *testing.F) {
	f.Add([]byte{4, 1, 2, 3, 4, 5, 6, 7, 8}, uint16(3))
	f.Add([]byte{0, 0, 0, 0}, uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, rank uint16) {
		if len(data) == 0 {
			return
		}
		// First byte: run count; remainder: keys distributed round-robin.
		k := int(data[0])%6 + 1
		keys := decodeKeys(data[1:])
		runsD := make([][]uint64, k)
		for i, v := range keys {
			runsD[i%k] = append(runsD[i%k], v)
		}
		runs := make([]trace.U64, k)
		base := addr.FarBase
		total := 0
		for i, d := range runsD {
			sortInPlaceU64(d)
			runs[i] = trace.U64{Base: base, D: d}
			base += addr.Addr(len(d)*8 + 64)
			total += len(d)
		}
		r := int(rank) % (total + 1)
		pos := exactSelect(nil, runs, r)
		sum := 0
		for i := range pos {
			if pos[i] < 0 || pos[i] > runs[i].Len() {
				t.Fatalf("pos out of range")
			}
			sum += pos[i]
		}
		if sum != r {
			t.Fatalf("selected %d elements, want %d", sum, r)
		}
		// Prefix-max must not exceed suffix-min (downward closure).
		var prefMax uint64
		sufMin := ^uint64(0)
		havePref, haveSuf := false, false
		for i, run := range runs {
			if pos[i] > 0 {
				if v := run.D[pos[i]-1]; !havePref || v > prefMax {
					prefMax, havePref = v, true
				}
			}
			if pos[i] < run.Len() {
				if v := run.D[pos[i]]; !haveSuf || v < sufMin {
					sufMin, haveSuf = v, true
				}
			}
		}
		if havePref && haveSuf && prefMax > sufMin {
			t.Fatalf("selection not downward closed: prefix max %d > suffix min %d", prefMax, sufMin)
		}
	})
}

func sortInPlaceU64(a []uint64) {
	// Insertion sort: fuzz runs are tiny.
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		for j >= 0 && a[j] > x {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = x
	}
}

func FuzzQuickSortMatchesMergeSort(f *testing.F) {
	f.Add([]byte{5, 4, 3, 2, 1, 0, 255, 254})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		n := len(data) / 8
		q := make([]uint64, n)
		for i := range q {
			q[i] = binary.LittleEndian.Uint64(data[i*8:])
		}
		m := append([]uint64(nil), q...)
		QuickSort(nil, farView(q))
		tmp := make([]uint64, n)
		mergeSortInPlace(nil, farView(m), trace.U64{Base: addr.NearBase, D: tmp})
		for i := range q {
			if q[i] != m[i] {
				t.Fatalf("sorts disagree at %d", i)
			}
		}
	})
}
