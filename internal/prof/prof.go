// Package prof wires the runtime's CPU and heap profilers to command-line
// flags: the -cpuprofile/-memprofile convention of the go tool, shared by
// nmsim and sweep so perf work can attach real profiles to a claim instead
// of guessing — and, in stages.go, the host-time stage recorder behind
// their -timings flag (ROADMAP item 1 grows the rest here: nested spans,
// histograms, gauges). All of it is strictly host-side observation — it
// never touches simulated state, so enabling it cannot change a single
// output byte.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiles manages one command's optional profile outputs. The zero value
// (from Start with two empty paths) is inert: Stop is a no-op.
type Profiles struct {
	cpuFile *os.File
	memPath string
}

// Start begins CPU profiling into cpuPath (when non-empty) and remembers
// memPath for the heap snapshot Stop writes. Either path may be empty to
// disable that profile.
func Start(cpuPath, memPath string) (*Profiles, error) {
	p := &Profiles{memPath: memPath}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("prof: %w", err)
		}
		p.cpuFile = f
	}
	return p, nil
}

// Stop ends the CPU profile and writes the heap profile, reporting the
// first error it hits (a full disk surfaces at close). Safe to call once
// whether or not profiling was enabled; the caller should run it even when
// the command failed, so partial runs still yield usable profiles.
func (p *Profiles) Stop() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = fmt.Errorf("prof: %w", err)
		}
	}
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		keep(p.cpuFile.Close())
		p.cpuFile = nil
	}
	if p.memPath != "" {
		f, err := os.Create(p.memPath)
		if err != nil {
			keep(err)
			return first
		}
		runtime.GC() // materialize up-to-date allocation statistics
		keep(pprof.WriteHeapProfile(f))
		keep(f.Close())
		p.memPath = ""
	}
	return first
}
