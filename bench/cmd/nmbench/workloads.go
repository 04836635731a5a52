package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/bench/internal/stat"
)

// setups is how many times a run sets up; setup_s is the median, so one
// slow first build in a fresh checkout does not read as the set-up time.
const setups = 3

// outcome is what one end-to-end run measured, before it is shaped into the
// metric names of BENCHMARK.json. A unit is one repetition of the workload's
// timed work: a child run, a convert cycle, or (serve-mix) one request.
type outcome struct {
	setupS    float64
	walls     []float64 // wall seconds of every unit
	tailOf    []float64 // samples wall_tail_s is taken over; nil means walls
	cpuS      float64   // child CPU seconds (user+sys) per unit
	rssMiB    float64   // largest resident set any child reached
	workPerS  float64   // the workload's work items per wall second
	attempted int       // operations whose outcome was checked
	failed    int       // those that failed a check
	detail    map[string]float64
	samples   map[string]int
	digest    string // hash of every simulated statistic the run saw
	notes     []string
}

func newOutcome() *outcome {
	return &outcome{detail: map[string]float64{}, samples: map[string]int{}}
}

// fail counts one failed operation and says why on standard error.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "nmbench: FAIL: "+format+"\n", args...)
}

// endToEnd maps the outcome onto the end-to-end metric names.
func (o *outcome) endToEnd() map[string]float64 {
	if o.tailOf == nil {
		o.tailOf = o.walls
	}
	tail, p := stat.Tail(o.tailOf, 95)
	o.samples["units"] = len(o.walls)
	if p == 100 {
		o.notes = append(o.notes, fmt.Sprintf("wall_tail_s is the slowest of %d units: no percentile has ten samples beyond it", len(o.tailOf)))
	} else {
		o.notes = append(o.notes, fmt.Sprintf("wall_tail_s is p%.0f of %d samples", p, len(o.tailOf)))
	}
	return map[string]float64{
		"setup_s":      o.setupS,
		"wall_s":       stat.Median(o.walls),
		"wall_tail_s":  tail,
		"cpu_s":        o.cpuS,
		"peak_rss_mib": o.rssMiB,
		"work_per_s":   o.workPerS,
	}
}

func (b *bench) workloads() map[string]func(*bench) (*outcome, error) {
	return map[string]func(*bench) (*outcome, error){
		"table1-cold": (*bench).table1Cold,
		"sweep-warm":  (*bench).sweepWarm,
		"trace-store": (*bench).traceStore,
		"serve-mix":   (*bench).serveMix,
	}
}

// child is one finished child process.
type child struct {
	wall   float64 // seconds from start to exit
	cpu    float64 // user+sys seconds
	rssMiB float64
	stdout []byte
	stderr []byte
	exit   int
}

// measure fills in what the kernel accounted to an exited process.
func (c *child) measure(ps *os.ProcessState) {
	c.exit = ps.ExitCode()
	c.cpu = (ps.UserTime() + ps.SystemTime()).Seconds()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		c.rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
}

// exec runs a built binary to completion and measures it.
func (b *bench) exec(name string, args ...string) (child, error) {
	cmd := exec.CommandContext(b.ctx, filepath.Join(b.bin, name), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	c := child{wall: time.Since(start).Seconds(), stdout: stdout.Bytes(), stderr: stderr.Bytes()}
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		return c, fmt.Errorf("%s: %w", name, err)
	}
	c.measure(cmd.ProcessState)
	return c, nil
}

// want runs a binary that must exit with code and returns it.
func (b *bench) want(code int, name string, args ...string) (child, error) {
	c, err := b.exec(name, args...)
	if err == nil && c.exit != code {
		err = fmt.Errorf("%s %s: exit %d, want %d: %s", name, strings.Join(args, " "), c.exit, code, c.stderr)
	}
	return c, err
}

// build compiles the four binaries from the checkout's source. Part of
// every set-up: after the first time the go build cache makes it cheap, and
// that is the cost a user pays too.
func (b *bench) build() error {
	cmd := exec.CommandContext(b.ctx, "go", "build", "-o", b.bin+string(filepath.Separator),
		"./cmd/nmsim", "./cmd/sweep", "./cmd/nmtrace", "./cmd/nmsimd")
	cmd.Dir = b.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w: %s", err, out)
	}
	return nil
}

// medianSetup sets up `setups` times, tearing every set-up but the last
// down again, and returns the median set-up time in seconds. The last
// set-up is the caller's to tear down.
func (b *bench) medianSetup(setup func() (teardown func(), err error)) (float64, error) {
	var times []float64
	var teardown func()
	for i := 0; i < setups; i++ {
		if teardown != nil {
			teardown()
		}
		start := time.Now()
		if err := b.build(); err != nil {
			return 0, err
		}
		var err error
		if teardown, err = setup(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return stat.Median(times), nil
}

// repeat runs unit until the timed region has lasted b.Seconds, at least
// twice so repetitions can be compared, or exactly b.reps times.
func (b *bench) repeat(unit func(rep int) error) error {
	start := time.Now()
	for rep := 0; ; rep++ {
		if b.reps > 0 && rep >= b.reps {
			return nil
		}
		if b.reps == 0 && rep >= 2 && time.Since(start).Seconds() >= float64(b.Seconds) {
			return nil
		}
		if err := unit(rep); err != nil {
			return err
		}
	}
}

// cliRuns measures repeated runs of one binary whose standard output must be
// byte-identical every time; parse extracts the work a run simulated.
func (b *bench) cliRuns(o *outcome, label string, work func(stdout []byte) (float64, error), name string, args ...string) ([]byte, error) {
	var first []byte
	var cpus, rss, rates []float64
	err := b.repeat(func(rep int) error {
		c, err := b.exec(name, args...)
		if err != nil {
			return err
		}
		o.attempted++
		o.walls = append(o.walls, c.wall)
		cpus, rss = append(cpus, c.cpu), append(rss, c.rssMiB)
		w, werr := work(c.stdout)
		rates = append(rates, w/c.wall)
		switch {
		case c.exit != 0:
			o.fail("%s rep %d: exit %d: %s", label, rep, c.exit, c.stderr)
		case werr != nil:
			o.fail("%s rep %d: %v", label, rep, werr)
		case rep == 0:
			first = c.stdout
		case !bytes.Equal(c.stdout, first):
			o.fail("%s rep %d: output differs from rep 0", label, rep)
		}
		return nil
	})
	o.cpuS, o.rssMiB, o.workPerS = stat.Median(cpus), slices.Max(rss), stat.Median(rates)
	o.digest = sha(first)
	return first, err
}

func sha(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (b *bench) sizeArgs() []string {
	return []string{"-n", strconv.Itoa(b.N), "-cores", strconv.Itoa(b.Cores), "-sp", "2", "-seed", strconv.FormatUint(b.Seed, 10)}
}

// table1Cold is the roadmap's reference run: a fresh nmsim process records
// both sorts and replays four cells sequentially, so the recorder, the
// replay kernel and cold-heap page faults all show in one wall time.
func (b *bench) table1Cold() (*outcome, error) {
	o := newOutcome()
	var err error
	if o.setupS, err = b.medianSetup(func() (func(), error) { return func() {}, nil }); err != nil {
		return nil, err
	}
	args := append([]string{"-par", "1"}, b.sizeArgs()...)
	stdout, err := b.cliRuns(o, "table1-cold", table1Accesses, "nmsim", args...)
	if err != nil {
		return nil, err
	}
	// The golden pins the simulated statistics of the reference input; at
	// any other seed or size only run-to-run identity is checked.
	if b.Seed == 2015 && b.N == 1<<20 && b.Cores == 256 {
		golden, err := os.ReadFile(filepath.Join(b.root, "bench", "golden", "table1-cold.seed2015.sha256"))
		if err != nil {
			return nil, err
		}
		o.attempted++
		if got := sha(stdout); got != strings.TrimSpace(string(golden)) {
			o.fail("table1-cold: stdout sha256 %s differs from bench/golden", got)
		}
	}
	o.detail["table1_wall_s"] = stat.Median(o.walls)
	o.detail["sim_accesses_per_s"] = o.workPerS
	return o, nil
}

// table1Accesses sums the device accesses of nmsim's text table: every
// number on its "Scratchpad Accesses" and "DRAM Accesses" rows.
func table1Accesses(stdout []byte) (float64, error) {
	var sum float64
	for _, line := range strings.Split(string(stdout), "\n") {
		for _, label := range []string{"Scratchpad Accesses", "DRAM Accesses"} {
			if rest, ok := strings.CutPrefix(line, label); ok {
				for _, f := range strings.Fields(rest) {
					v, err := strconv.ParseFloat(f, 64)
					if err != nil {
						return 0, fmt.Errorf("bad access count %q", f)
					}
					sum += v
				}
			}
		}
	}
	if sum == 0 {
		return 0, errors.New("no device accesses in the table")
	}
	return sum, nil
}

// sweepWarm replays the six bandwidth-sweep cells from a populated trace
// cache at the default -par: the replay kernel does the work, the recorder
// none, and it is the only path through -par and the disk record cache.
func (b *bench) sweepWarm() (*outcome, error) {
	o := newOutcome()
	base := append([]string{"-exp=bandwidth", "-format", "csv"}, b.sizeArgs()...)
	var dir string
	var err error
	o.setupS, err = b.medianSetup(func() (func(), error) {
		if dir, err = os.MkdirTemp(b.run, "tracecache-"); err != nil {
			return nil, err
		}
		// A sweep cancelled by an expired -timeout still records both traces
		// into the cache and exits 130 before replaying a cell: the cheapest
		// way to populate the cache through the binary's own flags.
		_, err := b.want(130, "sweep", append(base, "-trace-cache", dir, "-timeout", "1ns")...)
		return func() { os.RemoveAll(dir) }, err
	})
	if err != nil {
		return nil, err
	}
	before, err := cacheFiles(dir)
	if err != nil {
		return nil, err
	}
	if _, err = b.cliRuns(o, "sweep-warm", sweepAccesses, "sweep", append(base, "-trace-cache", dir)...); err != nil {
		return nil, err
	}
	// A warm run must not have recorded: the cache files are untouched.
	o.attempted++
	if after, err := cacheFiles(dir); err != nil || after != before {
		o.fail("sweep-warm: the trace cache changed during the timed runs (%v)", err)
	}
	o.detail["sweep_wall_s"] = stat.Median(o.walls)
	o.detail["sim_accesses_per_s"] = o.workPerS
	return o, nil
}

// cacheFiles fingerprints a trace cache directory: names, sizes and
// modification times of its two .nmt3 files.
func cacheFiles(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var fp []string
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return "", err
		}
		fp = append(fp, fmt.Sprintf("%s:%d:%d", e.Name(), info.Size(), info.ModTime().UnixNano()))
	}
	if len(fp) != 2 {
		return "", fmt.Errorf("trace cache holds %d files, want the 2 recorded traces", len(fp))
	}
	return strings.Join(fp, " "), nil
}

// sweepAccesses sums near_acc and far_acc over the rows of sweep's CSV.
func sweepAccesses(stdout []byte) (float64, error) {
	rows, err := csv.NewReader(bytes.NewReader(stdout)).ReadAll()
	if err != nil || len(rows) < 2 {
		return 0, fmt.Errorf("bad sweep CSV: %v", err)
	}
	var sum float64
	for col, name := range rows[0] {
		if name != "near_acc" && name != "far_acc" {
			continue
		}
		for _, row := range rows[1:] {
			v, err := strconv.ParseFloat(row[col], 64)
			if err != nil {
				return 0, fmt.Errorf("bad %s %q", name, row[col])
			}
			sum += v
		}
	}
	if sum == 0 {
		return 0, errors.New("no device accesses in the CSV")
	}
	return sum, nil
}

var convertLine = regexp.MustCompile(`(\d+) ops, (\d+) bytes, digest ([0-9a-f]{16})`)

// traceStore converts the two Table I traces v2 -> v3 -> v2 and inspects
// the v3 files: trace serialization does all the work, replay and record
// none, with the write side (encode) beside the read side (open, decode).
func (b *bench) traceStore() (*outcome, error) {
	o := newOutcome()
	algs := []string{"gnusort", "nmsort"}
	var dir string
	var err error
	o.setupS, err = b.medianSetup(func() (func(), error) {
		if dir, err = os.MkdirTemp(b.run, "traces-"); err != nil {
			return nil, err
		}
		for _, alg := range algs {
			args := append([]string{"record", "-alg", alg, "-o", filepath.Join(dir, alg+".nmt")}, b.sizeArgs()...)
			if _, err := b.want(0, "nmtrace", args...); err != nil {
				return nil, err
			}
		}
		return func() { os.RemoveAll(dir) }, nil
	})
	if err != nil {
		return nil, err
	}

	var cpus, rss, toV3, toV2, opsPerS []float64
	var seen [][]byte
	err = b.repeat(func(rep int) error {
		var cycle child // sums over the cycle's six children
		var v3Wall, v2Wall, v2MB, v3MB, ops float64
		var outputs []byte
		for _, alg := range algs {
			v2 := filepath.Join(dir, alg+".nmt")
			v3 := filepath.Join(dir, alg+".nmt3")
			back := filepath.Join(dir, alg+".back.nmt")
			steps := [][]string{
				{"convert", "-i", v2, "-o", v3},
				{"convert", "-i", v3, "-o", back},
				{"info", "-i", v3},
			}
			var digests []string
			for i, args := range steps {
				c, err := b.exec("nmtrace", args...)
				if err != nil {
					return err
				}
				o.attempted++
				cycle.wall += c.wall
				cycle.cpu += c.cpu
				cycle.rssMiB = max(cycle.rssMiB, c.rssMiB)
				if c.exit != 0 {
					o.fail("trace-store rep %d: nmtrace %s: exit %d: %s", rep, strings.Join(args, " "), c.exit, c.stderr)
					continue
				}
				if i == 2 {
					outputs = append(outputs, c.stdout...)
					continue
				}
				m := convertLine.FindSubmatch(c.stdout)
				if m == nil {
					o.fail("trace-store rep %d: unexpected convert output %q", rep, c.stdout)
					continue
				}
				digests = append(digests, string(m[3]))
				outputs = append(outputs, m[1]...)
				outputs = append(outputs, m[3]...)
				n, _ := strconv.ParseFloat(string(m[1]), 64)
				ops += n
				if i == 0 {
					v3Wall += c.wall
					v2MB += fileMB(v2)
				} else {
					v2Wall += c.wall
					v3MB += fileMB(v3)
				}
			}
			// The round trip must give the recorded bytes back, and both
			// conversions must report the one content digest.
			o.attempted++
			orig, err1 := os.ReadFile(v2)
			round, err2 := os.ReadFile(back)
			if err1 != nil || err2 != nil || !bytes.Equal(orig, round) {
				o.fail("trace-store rep %d: %s v2 -> v3 -> v2 is not byte-exact", rep, alg)
			} else if len(digests) != 2 || digests[0] != digests[1] {
				o.fail("trace-store rep %d: %s digests differ across conversions: %v", rep, alg, digests)
			}
		}
		o.walls = append(o.walls, cycle.wall)
		cpus, rss = append(cpus, cycle.cpu), append(rss, cycle.rssMiB)
		toV3, toV2 = append(toV3, v2MB/v3Wall), append(toV2, v3MB/v2Wall)
		opsPerS = append(opsPerS, ops/cycle.wall)
		seen = append(seen, outputs)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for rep, out := range seen[1:] {
		if !bytes.Equal(out, seen[0]) {
			o.fail("trace-store rep %d: op counts, digests or info output differ from rep 0", rep+1)
		}
	}
	o.cpuS, o.rssMiB, o.workPerS = stat.Median(cpus), slices.Max(rss), stat.Median(opsPerS)
	o.digest = sha(seen[0])
	o.detail["convert_v3_mb_per_s"] = stat.Median(toV3)
	o.detail["convert_v2_mb_per_s"] = stat.Median(toV2)
	return o, nil
}

func fileMB(path string) float64 {
	info, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(info.Size()) / 1e6
}
