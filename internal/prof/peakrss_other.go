//go:build !unix

package prof

// PeakRSS reports no peak: only unix getrusage gives one.
func PeakRSS() (int64, bool) { return 0, false }
