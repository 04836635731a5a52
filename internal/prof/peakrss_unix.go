//go:build unix

package prof

import (
	"runtime"
	"syscall"
)

// PeakRSS returns the process's peak resident set size in bytes, from
// getrusage's maxrss, and whether the platform reports one.
func PeakRSS() (int64, bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	if runtime.GOOS == "darwin" || runtime.GOOS == "ios" {
		return int64(ru.Maxrss), true // bytes there, KiB everywhere else
	}
	return int64(ru.Maxrss) << 10, true
}
