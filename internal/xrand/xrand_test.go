package xrand

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("streams diverged at %d: %x vs %x", i, x, y)
		}
	}
}

func TestSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("nearby seeds produced %d identical outputs of 100", same)
	}
}

func TestUint64nRange(t *testing.T) {
	r := New(7)
	for _, n := range []uint64{1, 2, 3, 10, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-squared-ish sanity check over 16 buckets.
	r := New(99)
	const buckets, draws = 16, 160000
	var count [buckets]int
	for i := 0; i < draws; i++ {
		count[r.Uint64n(buckets)]++
	}
	want := float64(draws) / buckets
	for i, c := range count {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: %d draws, want ~%.0f", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestSampleNoReplace(t *testing.T) {
	r := New(5)
	for trial := 0; trial < 50; trial++ {
		s := r.SampleNoReplace(50, 20)
		if len(s) != 20 {
			t.Fatalf("len = %d", len(s))
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= 50 {
				t.Fatalf("out of range: %d", v)
			}
			if seen[v] {
				t.Fatalf("duplicate sample %d", v)
			}
			seen[v] = true
		}
	}
}

func TestSampleNoReplaceFull(t *testing.T) {
	// m == n must return a permutation of [0,n).
	r := New(11)
	s := r.SampleNoReplace(10, 10)
	seen := map[int]bool{}
	for _, v := range s {
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("not a permutation: %v", s)
	}
}

func TestSampleNoReplacePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for m > n")
		}
	}()
	New(1).SampleNoReplace(3, 4)
}

func TestKeysFills(t *testing.T) {
	r := New(13)
	ks := make([]uint64, 1000)
	r.Keys(ks)
	zero := 0
	for _, k := range ks {
		if k == 0 {
			zero++
		}
	}
	if zero > 1 {
		t.Errorf("%d zero keys in 1000 uniform draws", zero)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}
