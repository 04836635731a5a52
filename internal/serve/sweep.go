package serve

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/report"
	"repro/internal/units"
	"repro/internal/workload"
)

// The sweep defaults: the command-line front end's flag defaults
// (internal/cli), and what the wire's zero values mean (normalizeSweep).
// cli.NMSim overrides the scratchpad (-sp 2) and fixes the experiment.
const (
	DefaultN      = 1 << 20
	DefaultSeed   = 2015
	DefaultCores  = 256
	DefaultSPMiB  = 8
	DefaultFormat = string(report.Text)
)

// normalizeSweep fills a wire request's zero fields with the sweep defaults,
// so a minimal request renders the same bytes a flagless sweep run prints.
func normalizeSweep(req SweepRequest) SweepRequest {
	req.N = cmp.Or(req.N, DefaultN)
	req.Seed = cmp.Or(req.Seed, DefaultSeed)
	req.Cores = cmp.Or(req.Cores, DefaultCores)
	req.SPMiB = cmp.Or(req.SPMiB, DefaultSPMiB)
	req.Format = cmp.Or(req.Format, DefaultFormat)
	return req
}

// Validate checks every field against its range, naming the field in both
// spellings — the JSON key and the command-line flag — so one message serves
// the daemon's 400 and the CLIs' usage error. A valid request may still be
// refused by its row (a size axis that cannot use n); RunSweep returns that.
func (r SweepRequest) Validate() error {
	if err := oneOf("experiment", r.Exp, harness.ExperimentNames()); err != nil {
		return err
	}
	if _, err := report.ParseFormat(r.Format); err != nil {
		return err
	}
	if _, err := parseDist(r.Dist); err != nil {
		return err
	}
	err := cmp.Or(
		nonNegative("n (-n)", r.N),
		coreCount("cores (-cores)", r.Cores),
		positive("sp_mib (-sp)", r.SPMiB),
		nonNegative("par (-par)", r.Par),
		nonNegative("retries (-retries)", r.Retries),
		nonNegative("epoch_ps (-epoch)", r.EpochPS),
		faultRate("fault_rate (-fault-rate)", r.FaultSeed, r.FaultRate),
	)
	for _, c := range r.CoreList {
		err = cmp.Or(err, coreCount("core_list (-corelist) core count", c))
	}
	for _, rate := range r.FaultRates {
		err = cmp.Or(err, faultRate("fault_rates (-fault-rates) fault rate", r.FaultSeed, rate))
	}
	return err
}

// The range rules, each worded once. Validate, JobRequest.Validate and handleRecord
// check their fields through these.

// nonNegative requires v ≥ 0.
func nonNegative[T int | int64](name string, v T) error {
	if v < 0 {
		return fmt.Errorf("%s %d is negative", name, v)
	}
	return nil
}

// positive requires v > 0.
func positive(name string, v int) error {
	if v <= 0 {
		return fmt.Errorf("%s %d must be positive", name, v)
	}
	return nil
}

// coreCount requires a simulated core count: a positive multiple of 4 (one
// quad-core group per L2).
func coreCount(name string, v int) error {
	if v <= 0 || v%4 != 0 {
		return fmt.Errorf("%s %d must be a positive multiple of 4", name, v)
	}
	return nil
}

// oneOf requires v to name an entry of a registry: an experiment, or a
// program harness.Record runs.
func oneOf(what, v string, names []string) error {
	if !slices.Contains(names, v) {
		return fmt.Errorf("unknown %s %q (want one of: %s)", what, v, strings.Join(names, ", "))
	}
	return nil
}

// faultRate requires a far-memory bit error rate in [0, 1] whose fault
// profile validates.
func faultRate(name string, seed uint64, v float64) error {
	if v < 0 || v > 1 || v != v {
		return fmt.Errorf("%s %v must be in [0, 1]", name, v)
	}
	return fault.Profile(seed, v).Validate()
}

// parseDist parses a distribution name, "" meaning uniform.
func parseDist(s string) (workload.Dist, error) {
	if s == "" {
		return "", nil
	}
	return workload.Parse(s)
}

// Workload is the harness workload a valid request runs on, under sup. Dist
// reaches every row that records a sort; kmeans and the model-side rows
// (pem included) pin their own recordings and ignore it.
func (r SweepRequest) Workload(sup *harness.Supervisor) harness.Workload {
	d, _ := parseDist(r.Dist)
	return harness.Workload{
		N:         r.N,
		Seed:      r.Seed,
		Threads:   r.Cores,
		SP:        units.Bytes(r.SPMiB) * units.MiB,
		Dist:      d,
		MaxEvents: r.MaxEvents,
		Par:       r.Par,
		Sup:       sup,
	}
}

// Params is the registry parameters a valid request carries. A fault_rate
// above 0 becomes the fault profile every table1 node carries.
func (r SweepRequest) Params() harness.ExperimentParams {
	p := harness.ExperimentParams{
		CoreList:   r.CoreList,
		FaultSeed:  r.FaultSeed,
		FaultRates: r.FaultRates,
		Epoch:      units.Time(r.EpochPS),
		DMA:        r.DMA,
	}
	if r.FaultRate > 0 {
		p.Fault = fault.Profile(r.FaultSeed, r.FaultRate)
	}
	return p
}

// RunSweep runs the request's registry row in process and renders the report
// to w in the request's format. It returns the count of failed cells, which
// the report marks. The request's slice, retries and retry_seed set sup's
// (a zero slice keeps sup's own); a nil sup is the zero Supervisor. An
// invalid request is refused before any work.
func RunSweep(w io.Writer, req SweepRequest, sup *harness.Supervisor) (int, error) {
	if err := req.Validate(); err != nil {
		return 0, err
	}
	if sup == nil {
		sup = new(harness.Supervisor)
	}
	sup.Slice = cmp.Or(req.Slice, sup.Slice)
	sup.Retries, sup.RetrySeed = req.Retries, req.RetrySeed
	// Validate has found the row and parsed the format.
	e, _ := harness.FindExperiment(req.Exp)
	out, err := e.Run(req.Params(), req.Workload(sup))
	if err != nil {
		return 0, err
	}
	f, _ := report.ParseFormat(req.Format)
	return out.Failed(), harness.Render(w, out, f)
}
