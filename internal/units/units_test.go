package units

import (
	"testing"
	"testing/quick"
)

func TestBytesString(t *testing.T) {
	cases := []struct {
		in   Bytes
		want string
	}{
		{0, "0B"},
		{512, "512B"},
		{KiB, "1KiB"},
		{16 * KiB, "16KiB"},
		{512 * KiB, "512KiB"},
		{MiB, "1MiB"},
		{3 * GiB, "3GiB"},
		{KiB + 1, "1025B"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Bytes(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if got := Second.Seconds(); got != 1.0 {
		t.Errorf("Second.Seconds() = %v, want 1", got)
	}
	if got := (50 * Nanosecond).String(); got != "50.000ns" {
		t.Errorf("String = %q", got)
	}
	if got := (1500 * Nanosecond).String(); got != "1.500us" {
		t.Errorf("String = %q", got)
	}
	if got := (250 * Picosecond).String(); got != "250ps" {
		t.Errorf("String = %q", got)
	}
}

func TestHzPeriod(t *testing.T) {
	cases := []struct {
		f    Hz
		want Time
	}{
		{ghz, 1000 * Picosecond},
		{2 * ghz, 500 * Picosecond},
		{500 * mhz, 2 * Nanosecond},
		{Hz(1.7e9), 588 * Picosecond}, // the paper's 1.7GHz cores
	}
	for _, c := range cases {
		if got := c.f.Period(); got != c.want {
			t.Errorf("%v.Period() = %v, want %v", c.f, got, c.want)
		}
	}
}

func TestHzPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero frequency")
		}
	}()
	Hz(0).Period()
}

func TestTransferTime(t *testing.T) {
	bw := GBps(1) // 1e9 bytes/s: 1 byte per nanosecond
	if got := bw.TransferTime(64); got != 64*Nanosecond {
		t.Errorf("64B at 1GB/s = %v, want 64ns", got)
	}
	if got := bw.TransferTime(0); got != 0 {
		t.Errorf("0B transfer = %v, want 0", got)
	}
	// 72 GB/s link from the paper: 64B should take ceil(64e12/72e9) = 889ps.
	if got := GBps(72).TransferTime(64); got != 889*Picosecond {
		t.Errorf("64B at 72GB/s = %v, want 889ps", got)
	}
}

func TestTransferTimeMonotone(t *testing.T) {
	bw := GBps(36)
	f := func(a, b uint16) bool {
		x, y := Bytes(a), Bytes(b)
		if x > y {
			x, y = y, x
		}
		return bw.TransferTime(x) <= bw.TransferTime(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, 64, 0},
		{1, 64, 1},
		{64, 64, 1},
		{65, 64, 2},
		{-5, 64, 0},
		{1000, 3, 334},
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCeilDivProperty(t *testing.T) {
	f := func(a uint32, b uint16) bool {
		if b == 0 {
			return true
		}
		q := CeilDiv(int64(a), int64(b))
		return q*int64(b) >= int64(a) && (q-1)*int64(b) < int64(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBandwidthString(t *testing.T) {
	if got := GBps(72).String(); got != "72.00GB/s" {
		t.Errorf("String = %q", got)
	}
}

func TestTimeStringAllRanges(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{2 * Second, "2.000s"},
		{5 * Millisecond, "5.000ms"},
		{42 * Nanosecond, "42.000ns"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d ps -> %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestHzStringAllRanges(t *testing.T) {
	cases := []struct {
		f    Hz
		want string
	}{
		{Hz(1.7e9), "1.70GHz"},
		{533 * mhz, "533.0MHz"},
		{32 * khz, "32.0kHz"},
		{Hz(500), "500Hz"},
	}
	for _, c := range cases {
		if got := c.f.String(); got != c.want {
			t.Errorf("%v -> %q, want %q", int64(c.f), got, c.want)
		}
	}
}

func TestTransferTimePanicsOnZeroBandwidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BytesPerSecond(0).TransferTime(64)
}

func TestCeilDivPanicsOnZeroDivisor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CeilDiv(5, 0)
}

func TestParseTime(t *testing.T) {
	cases := []struct {
		in   string
		want Time
	}{
		{"1ps", Picosecond},
		{"250ns", 250 * Nanosecond},
		{"10us", 10 * Microsecond},
		{"10µs", 10 * Microsecond},
		{"1.5ms", 1500 * Microsecond},
		{"2s", 2 * Second},
		{" 3 ns ", 3 * Nanosecond}, // whitespace around value and suffix
		{"0ps", 0},
		{"1.4ps", Picosecond},        // rounds to nearest picosecond
		{"0.0015ns", 2 * Picosecond}, // 1.5ps rounds up
	}
	for _, c := range cases {
		got, err := ParseTime(c.in)
		if err != nil {
			t.Errorf("ParseTime(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseTime(%q) = %d, want %d", c.in, int64(got), int64(c.want))
		}
	}
}

func TestParseTimeRejects(t *testing.T) {
	for _, in := range []string{
		"",       // empty
		"10",     // bare number: the suffix is mandatory
		"-5ns",   // negative durations are meaningless in sim time
		"NaNs",   // NaN smuggled through the "s" suffix
		"1e300s", // overflows the picosecond representation
		"xyzms",  // garbage value
		"5 sec",  // unknown suffix
	} {
		if got, err := ParseTime(in); err == nil {
			t.Errorf("ParseTime(%q) = %d, want error", in, int64(got))
		}
	}
}
