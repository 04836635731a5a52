//go:build unix

package prof

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// PeakRSS returns the process's peak resident set size in bytes, and
// whether the platform reports one. On Linux it is the kernel's VmHWM for
// this process; elsewhere, or when that line is missing, getrusage's maxrss.
func PeakRSS() (int64, bool) {
	if runtime.GOOS == "linux" {
		if hwm, ok := vmHWM(); ok {
			return hwm, true
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	if runtime.GOOS == "darwin" || runtime.GOOS == "ios" {
		return int64(ru.Maxrss), true // bytes there, KiB everywhere else
	}
	return int64(ru.Maxrss) << 10, true
}

// vmHWM reads the VmHWM line of /proc/self/status. Linux's maxrss is not the
// process's own: a child started with clone(CLONE_VM|CLONE_VFORK), as Go's
// os/exec starts every one, has it seeded at exec from its parent's peak.
func vmHWM() (int64, bool) {
	raw, err := os.ReadFile("/proc/self/status")
	_, line, ok := strings.Cut(string(raw), "\nVmHWM:")
	if err != nil || !ok {
		return 0, false
	}
	var kib int64
	_, err = fmt.Sscan(line, &kib)
	return kib << 10, err == nil
}
