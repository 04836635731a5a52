// Package xrand provides a small, fast, deterministic random number
// generator (PCG-XSL-RR 128/64) plus the sampling utilities the sorting
// algorithms need: uniform keys, sampling with and without replacement, and
// Fisher-Yates shuffles.
//
// The simulator must be bit-reproducible across runs, so nothing in this
// repository uses math/rand's global source; every randomized component
// takes an explicit *xrand.RNG seeded by the caller.
package xrand

import "math/bits"

// RNG is a PCG-XSL-RR 128/64 generator. The zero value is not usable; use
// New.
type RNG struct {
	hi, lo uint64 // 128-bit state
}

// Multiplier for the 128-bit LCG step (PCG reference constant).
const (
	mulHi = 2549297995355413924
	mulLo = 4865540595714422341
	incHi = 6364136223846793005
	incLo = 1442695040888963407
)

// New returns a generator seeded from a single 64-bit seed. Distinct seeds
// yield independent-looking streams.
func New(seed uint64) *RNG {
	r := &RNG{hi: seed, lo: seed ^ 0x9e3779b97f4a7c15}
	// Warm the state so similar seeds diverge.
	for i := 0; i < 4; i++ {
		r.Uint64()
	}
	return r
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
	// 128-bit multiply-add state update.
	hi, lo := bits.Mul64(r.lo, mulLo)
	hi += r.hi*mulLo + r.lo*mulHi
	var carry uint64
	lo, carry = bits.Add64(lo, incLo, 0)
	hi, _ = bits.Add64(hi, incHi, carry)
	r.hi, r.lo = hi, lo
	// XSL-RR output function.
	return bits.RotateLeft64(hi^lo, -int(hi>>58))
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Mix returns a statistically independent 64-bit value for the given key
// tuple under seed — a stateless, counter-based draw (SplitMix64 finalizer
// folded over the keys). Components that must make randomized decisions
// without sharing a sequential stream (e.g. fault injection keyed by
// (seed, device, access index)) use Mix so the outcome is a pure function
// of the tuple, independent of the order in which decisions are consumed.
func Mix(seed uint64, keys ...uint64) uint64 {
	h := seed ^ 0x9e3779b97f4a7c15
	for _, k := range keys {
		h += 0x9e3779b97f4a7c15 + k
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	// Final scramble so a zero-key tuple still diverges across seeds.
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// MixFloat64 maps Mix's draw for the tuple to a uniform value in [0, 1),
// with the same bit discipline as Float64.
func MixFloat64(seed uint64, keys ...uint64) float64 {
	return float64(Mix(seed, keys...)>>11) / (1 << 53)
}

// Keys fills dst with uniform 64-bit keys — the paper's workload of random
// 64-bit integers.
func (r *RNG) Keys(dst []uint64) {
	for i := range dst {
		dst[i] = r.Uint64()
	}
}

// SampleNoReplace draws m distinct indices uniformly from [0, n) using
// Floyd's algorithm. It panics if m > n.
func (r *RNG) SampleNoReplace(n, m int) []int {
	if m > n {
		panic("xrand: SampleNoReplace with m > n")
	}
	seen := make(map[int]struct{}, m)
	out := make([]int, 0, m)
	for j := n - m; j < n; j++ {
		t := r.Intn(j + 1)
		if _, dup := seen[t]; dup {
			t = j
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}
