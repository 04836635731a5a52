// Package units provides the byte-size and simulated-time quantities used
// throughout the two-level memory simulator and the algorithmic model.
//
// Simulated time is an integer number of picoseconds so that components with
// different clocks (1.7 GHz cores, 500 MHz scratchpad, DDR-1066 far memory)
// can share one event queue without rounding drift.
package units

import (
	"fmt"
	"strconv"
	"strings"
)

// Bytes is a byte count. Sizes in the model (B, ρB, M, Z) and in the machine
// description (cache capacities, line sizes) are all expressed in Bytes.
type Bytes int64

// Common byte-size constants.
const (
	KiB Bytes = 1 << 10
	MiB Bytes = 1 << 20
	GiB Bytes = 1 << 30
)

// String renders a byte count with a binary-prefix unit, e.g. "512KiB".
func (b Bytes) String() string {
	switch {
	case b >= GiB && b%GiB == 0:
		return fmt.Sprintf("%dGiB", b/GiB)
	case b >= MiB && b%MiB == 0:
		return fmt.Sprintf("%dMiB", b/MiB)
	case b >= KiB && b%KiB == 0:
		return fmt.Sprintf("%dKiB", b/KiB)
	default:
		return fmt.Sprintf("%dB", int64(b))
	}
}

// Time is a simulated timestamp or duration in picoseconds.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts a simulated duration to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders a duration with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// ParseTime parses a duration flag value like "10us", "1.5ms", "250ns", or
// "40000ps" into a simulated Time. The unit suffix is mandatory — a bare
// number is ambiguous in a codebase where time is picoseconds — and the
// value must be non-negative and finite. "us" and "µs" both denote
// microseconds.
func ParseTime(s string) (Time, error) {
	str := strings.TrimSpace(s)
	var unit Time
	switch {
	case strings.HasSuffix(str, "ps"):
		unit, str = Picosecond, strings.TrimSuffix(str, "ps")
	case strings.HasSuffix(str, "ns"):
		unit, str = Nanosecond, strings.TrimSuffix(str, "ns")
	case strings.HasSuffix(str, "µs"):
		unit, str = Microsecond, strings.TrimSuffix(str, "µs")
	case strings.HasSuffix(str, "us"):
		unit, str = Microsecond, strings.TrimSuffix(str, "us")
	case strings.HasSuffix(str, "ms"):
		unit, str = Millisecond, strings.TrimSuffix(str, "ms")
	case strings.HasSuffix(str, "s"):
		unit, str = Second, strings.TrimSuffix(str, "s")
	default:
		return 0, fmt.Errorf("units: duration %q needs a unit suffix (ps, ns, us, ms, s)", s)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(str), 64)
	if err != nil {
		return 0, fmt.Errorf("units: bad duration %q: %v", s, err)
	}
	if v < 0 || v != v || v > float64(1<<62)/float64(unit) {
		return 0, fmt.Errorf("units: duration %q out of range", s)
	}
	return Time(float64(v*float64(unit)) + 0.5), nil // float64(): no fused multiply-add on any GOARCH
}

// Hz is a clock frequency in cycles per second.
type Hz int64

// Common frequencies.
const (
	khz Hz = 1e3
	mhz Hz = 1e6
	ghz Hz = 1e9
)

// Period returns the duration of one clock cycle, rounded to the nearest
// picosecond. Period panics on a non-positive frequency.
func (f Hz) Period() Time {
	if f <= 0 {
		panic("units: non-positive frequency")
	}
	return Time((int64(Second) + int64(f)/2) / int64(f))
}

// String renders a frequency with an adaptive unit.
func (f Hz) String() string {
	switch {
	case f >= ghz:
		return fmt.Sprintf("%.2fGHz", float64(f)/float64(ghz))
	case f >= mhz:
		return fmt.Sprintf("%.1fMHz", float64(f)/float64(mhz))
	case f >= khz:
		return fmt.Sprintf("%.1fkHz", float64(f)/float64(khz))
	default:
		return fmt.Sprintf("%dHz", int64(f))
	}
}

// BytesPerSecond is a bandwidth. Link and channel capacities are expressed
// in BytesPerSecond.
type BytesPerSecond int64

// GBps constructs a bandwidth from a gigabytes-per-second figure as used in
// the paper's Figure 4 (e.g. "72GB/s connection"). Decimal gigabytes.
func GBps(gb float64) BytesPerSecond { return BytesPerSecond(gb * 1e9) }

// TransferTime returns how long moving n bytes occupies a resource of this
// bandwidth, rounded up to a whole picosecond. Zero bytes take zero time.
func (bw BytesPerSecond) TransferTime(n Bytes) Time {
	if bw <= 0 {
		panic("units: non-positive bandwidth")
	}
	if n <= 0 {
		return 0
	}
	num := int64(n) * int64(Second)
	return Time((num + int64(bw) - 1) / int64(bw))
}

// String renders a bandwidth in GB/s (decimal).
func (bw BytesPerSecond) String() string {
	return fmt.Sprintf("%.2fGB/s", float64(bw)/1e9)
}

// CeilDiv returns ceil(a/b) for positive b. It is used pervasively when
// converting byte counts to whole blocks or lines.
func CeilDiv(a, b int64) int64 {
	if b <= 0 {
		panic("units: CeilDiv with non-positive divisor")
	}
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}
