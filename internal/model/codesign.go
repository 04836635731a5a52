package model

import "math"

// Co-design guidance — the quantities the paper says should "guide vendors
// in the design of future scratchpad-based systems": given the traffic
// profile of a near-memory algorithm and its far-memory-only competitor,
// when does the scratchpad pay off, and how much bandwidth expansion does
// it need?
//
// In the bandwidth-bound regime an algorithm's time is its traffic divided
// by the bandwidth serving it. With far bandwidth W and expansion ρ:
//
//	T_base = baseFar / W
//	T_nm   = nmFar / W + nmNear / (ρ·W)
//
// so NMsort wins exactly when ρ > nmNear / (baseFar − nmFar).

// TrafficProfile describes the bytes (or blocks — only ratios matter) each
// algorithm moves per element sorted.
type TrafficProfile struct {
	BaseFar float64 // far traffic of the far-only baseline
	NMFar   float64 // far traffic of the near-memory algorithm
	NMNear  float64 // near traffic of the near-memory algorithm
}

// Valid reports whether the profile can ever favor the near-memory
// algorithm: it must save far traffic, and all terms must be positive.
func (p TrafficProfile) Valid() bool {
	return p.BaseFar > 0 && p.NMFar > 0 && p.NMNear > 0 && p.NMFar < p.BaseFar
}

// MinRho returns the smallest bandwidth-expansion factor at which the
// near-memory algorithm beats the baseline in the bandwidth-bound regime.
// It returns +Inf when the profile can never win (no far-traffic saving).
func (p TrafficProfile) MinRho() float64 {
	if p.NMFar >= p.BaseFar {
		return inf()
	}
	return p.NMNear / (p.BaseFar - p.NMFar)
}

// Speedup returns the bandwidth-bound time ratio T_base/T_nm at the given
// expansion factor (values above 1 mean the near-memory algorithm wins).
func (p TrafficProfile) Speedup(rho float64) float64 {
	if rho <= 0 {
		panic("model: non-positive rho")
	}
	// float64(): with a constant rho the quotient is a product, and must not
	// fuse into the sum on GOARCHes that have a multiply-add.
	return p.BaseFar / (p.NMFar + float64(p.NMNear/rho))
}

// AsymptoticSpeedup returns the ρ→∞ limit of the speedup: the far-traffic
// ratio, the hard ceiling any scratchpad can buy this algorithm pair.
func (p TrafficProfile) AsymptoticSpeedup() float64 {
	return p.BaseFar / p.NMFar
}

// PaperProfile returns the traffic profile implied by the paper's own
// Table I access counts (GNU 394.8M far; NMsort ~160M far + ~385M near).
func PaperProfile() TrafficProfile {
	return TrafficProfile{BaseFar: 394.8, NMFar: 160.2, NMNear: 385.4}
}

// Guidance bundles the vendor-facing numbers for one node design.
type Guidance struct {
	MinCores    int     // cores at which sorting becomes memory bound (§V-A)
	MinRho      float64 // expansion below which the scratchpad loses
	SpeedupAt2X float64
	SpeedupAt4X float64
	SpeedupAt8X float64
	Ceiling     float64 // ρ→∞ speedup limit
}

// VendorGuidance combines the Section V-A boundedness analysis with the
// traffic-profile arithmetic: the two numbers the paper's conclusion says
// this co-design study should hand to hardware designers.
func VendorGuidance(coreHz, cyclesPerCompare, bwBytes, elemBytes, zBlocks float64, p TrafficProfile) Guidance {
	return Guidance{
		MinCores:    MinCoresForMemoryBound(coreHz, cyclesPerCompare, bwBytes, elemBytes, zBlocks),
		MinRho:      p.MinRho(),
		SpeedupAt2X: p.Speedup(2),
		SpeedupAt4X: p.Speedup(4),
		SpeedupAt8X: p.Speedup(8),
		Ceiling:     p.AsymptoticSpeedup(),
	}
}

func inf() float64 { return math.Inf(1) }
