package prof

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestDisabled confirms two empty paths yield an inert Profiles whose Stop
// does nothing.
func TestDisabled(t *testing.T) {
	p, err := Start("", "")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := p.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// TestWritesProfiles runs a full Start/Stop cycle and checks both files
// land non-empty. The heap profile is written entirely at Stop; the CPU
// profile at least carries the pprof header.
func TestWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	p, err := Start(cpu, mem)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	// A little allocation so the heap profile has something to say.
	sink := make([][]byte, 64)
	for i := range sink {
		sink[i] = make([]byte, 1<<12)
	}
	_ = sink
	if err := p.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("missing profile %s: %v", path, err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", path)
		}
	}
	// Stop is single-shot but harmless to repeat.
	if err := p.Stop(); err != nil {
		t.Errorf("second Stop: %v", err)
	}
}

// TestStartBadPath confirms an uncreatable CPU path fails up front rather
// than at Stop.
func TestStartBadPath(t *testing.T) {
	if _, err := Start(filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.pprof"), ""); err == nil {
		t.Fatal("Start with uncreatable path = nil, want error")
	}
}

// TestPeakRSSIsTheProcessOwn re-executes the test binary from a process
// holding 160 MiB: the child's PeakRSS must be its own few MiB, not the
// parent's peak that Linux seeds a vforked child's maxrss with at exec.
func TestPeakRSSIsTheProcessOwn(t *testing.T) {
	const childEnv = "PROF_PEAK_RSS_CHILD"
	if os.Getenv(childEnv) != "" {
		rss, _ := PeakRSS()
		fmt.Printf("peak=%d\n", rss)
		return
	}
	if runtime.GOOS != "linux" {
		t.Skip("the inherited maxrss is Linux's")
	}
	held := make([]byte, 160<<20)
	for i := 0; i < len(held); i += 4096 {
		held[i] = 1 // fault every page in
	}
	if rss, _ := PeakRSS(); rss < 128<<20 {
		t.Fatalf("parent peak %d B after touching 160 MiB, want at least 128 MiB", rss)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestPeakRSSIsTheProcessOwn$")
	cmd.Env = append(os.Environ(), childEnv+"=1")
	out, err := cmd.Output()
	runtime.KeepAlive(held)
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	_, v, ok := strings.Cut(string(out), "peak=")
	v, _, _ = strings.Cut(v, "\n")
	rss, err := strconv.ParseInt(v, 10, 64)
	if !ok || err != nil {
		t.Fatalf("child printed no peak:\n%s", out)
	}
	if rss >= 64<<20 {
		t.Errorf("child peak RSS %.1f MiB, want its own (< 64 MiB), not the parent's", float64(rss)/(1<<20))
	}
}
