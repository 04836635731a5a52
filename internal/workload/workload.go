// Package workload generates the key distributions the sorting experiments
// run on. The paper evaluates uniform random 64-bit integers; the
// additional distributions here probe the algorithms' robustness — skew is
// exactly what stresses NMsort's bucket batching and the sampled splitters
// of the baseline.
package workload

import (
	"fmt"
	"math"

	"repro/internal/xrand"
)

// Dist identifies a key distribution.
type Dist string

// Supported distributions.
const (
	Uniform  Dist = "uniform"  // the paper's workload: uniform uint64
	Zipf     Dist = "zipf"     // heavy-tailed ranks (s ≈ 1.1) over 2^20 values
	Sorted   Dist = "sorted"   // already non-decreasing
	Reverse  Dist = "reverse"  // strictly decreasing
	FewKeys  Dist = "fewkeys"  // 16 distinct values (extreme duplication)
	Gaussian Dist = "gaussian" // sum-of-uniforms bell around 2^63
	RunBlend Dist = "runblend" // long pre-sorted runs spliced together
)

// All lists every supported distribution.
func All() []Dist {
	return []Dist{Uniform, Zipf, Sorted, Reverse, FewKeys, Gaussian, RunBlend}
}

// Parse validates a -dist flag value.
func Parse(s string) (Dist, error) {
	for _, d := range All() {
		if Dist(s) == d {
			return d, nil
		}
	}
	return "", fmt.Errorf("workload: unknown distribution %q", s)
}

// Fill writes n keys of the distribution into dst using the seed; "" is
// Uniform, the paper's.
func Fill(dst []uint64, d Dist, seed uint64) {
	rng := xrand.New(seed)
	n := len(dst)
	switch d {
	case Uniform, "":
		rng.Keys(dst)
	case Zipf:
		z := newZipf(rng, 1.1, 1<<20)
		for i := range dst {
			// Spread ranks over the key space deterministically so equal
			// ranks collide (heavy duplication at the head).
			dst[i] = z.next() * 0x9e3779b97f4a7c15
		}
	case Sorted:
		rng.Keys(dst)
		sortInPlace(dst)
	case Reverse:
		rng.Keys(dst)
		sortInPlace(dst)
		for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
			dst[i], dst[j] = dst[j], dst[i]
		}
	case FewKeys:
		for i := range dst {
			dst[i] = uint64(rng.Intn(16)) * 0x0123456789abcdef
		}
	case Gaussian:
		for i := range dst {
			// Irwin-Hall sum of 8 uniforms: cheap, deterministic bell.
			var s uint64
			for k := 0; k < 8; k++ {
				s += rng.Uint64() >> 3
			}
			dst[i] = s
		}
	case RunBlend:
		// 16 pre-sorted runs concatenated: the best case for merge-based
		// sorts' branch predictors, a realistic "partially sorted" input.
		run := (n + 15) / 16
		for lo := 0; lo < n; lo += run {
			hi := lo + run
			if hi > n {
				hi = n
			}
			rng.Keys(dst[lo:hi])
			sortInPlace(dst[lo:hi])
		}
	default:
		panic(fmt.Sprintf("workload: unknown distribution %q", d))
	}
}

// sortInPlace is a dependency-free pattern-defeating-free heapsort; the
// generator must not depend on internal/core (which it exists to test).
func sortInPlace(a []uint64) {
	n := len(a)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(a, i, n)
	}
	for end := n - 1; end > 0; end-- {
		a[0], a[end] = a[end], a[0]
		siftDown(a, 0, end)
	}
}

func siftDown(a []uint64, root, end int) {
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && a[child+1] > a[child] {
			child++
		}
		if a[root] >= a[child] {
			return
		}
		a[root], a[child] = a[child], a[root]
		root = child
	}
}

// zipf draws ranks with P(k) ∝ 1/k^s via inverse-CDF over a precomputed
// table (n is small enough to tabulate; deterministic by construction).
type zipf struct {
	rng *xrand.RNG
	cdf []float64
}

func newZipf(rng *xrand.RNG, s float64, n int) *zipf {
	// Tabulate a truncated harmonic CDF over min(n, 64K) ranks; the tail
	// beyond the table carries negligible mass at s > 1.
	if n > 1<<16 {
		n = 1 << 16
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += 1 / math.Pow(float64(k), s)
		cdf[k-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{rng: rng, cdf: cdf}
}

func (z *zipf) next() uint64 {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cdf)
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return uint64(lo + 1)
}
