package harness

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/xrand"
)

// The paper's model-side results as registry rows: the Section V-A
// inequality (C4), vendor guidance, and the recording-only checks of Theorem
// 6 (M1), Lemma 5 (M2), Corollaries 3 and 7 (M3) and Theorem 8 (M-PEM). A row
// with a size axis takes the top of the axis from Workload.N; everything else
// it depends on — seeds, M, Z, ρ, m, p′ — is pinned here, so the numbers do
// not move with the node the other flags describe.

// tableOutput is the Output of a row whose result is one grid.
type tableOutput struct {
	t      *report.Table
	failed int
}

func (o tableOutput) String() string {
	var b strings.Builder
	o.t.Render(&b, report.Text) // a strings.Builder takes every write
	return b.String()
}

func (o tableOutput) Report() *report.Table { return o.t }
func (o tableOutput) Failed() int           { return o.failed }

// sizeAxis is a row's size axis: rows sizes, each factor times the one
// before, the last equal to top. It refuses a top whose smallest size would
// fall below least, which the row cannot run.
func sizeAxis(exp string, top, factor, rows, least int) ([]int, error) {
	sizes := make([]int, rows)
	for i, n := rows-1, top; i >= 0; i, n = i-1, n/factor {
		sizes[i] = n
	}
	if sizes[0] < least {
		floor := least
		for range rows - 1 {
			floor *= factor
		}
		return nil, fmt.Errorf("harness: -exp=%s takes %d sizes up to n, each %d times the one before; n = %d must be at least %d",
			exp, rows, factor, top, floor)
	}
	return sizes, nil
}

// The node of the paper's Section V-A estimate: 1.7 GHz cores retiring one
// comparison every 16 cycles, 8 GB/s of useful off-chip bandwidth moving
// 8-byte keys (y = 10⁹ elements/s), and Z = 10⁶ blocks on chip.
const (
	paperCoreHz  = 1.7e9
	paperCycles  = 16
	paperBW      = 8e9
	paperElem    = 8
	paperZBlocks = 1e6
)

// memBound evaluates claim C4 on the paper's node: both sides of y·lgZ < x at
// the §V core counts and at the crossover, the fewest cores at which sorting
// turns memory bound. Model only.
func memBound(ExperimentParams, Workload) (Output, error) {
	crossover := model.MinCoresForMemoryBound(paperCoreHz, paperCycles, paperBW, paperElem, paperZBlocks)
	t := report.New(fmt.Sprintf("Section V-A: sorting is memory bound iff y·lgZ < x (N cancels); %.2f GHz, %d cyc/cmp, y = %.3g elem/s, Z = %.3g blocks",
		paperCoreHz/1e9, paperCycles, paperBW/paperElem, paperZBlocks),
		"cores", "x_cmp_per_s", "y_lgZ_elem_per_s", "ratio", "verdict")
	cores := append(DefaultCoreList(), crossover)
	slices.Sort(cores)
	for _, c := range cores {
		x, y := model.NodeRates(c, paperCoreHz, paperCycles, paperBW, paperElem)
		a := model.MemoryBound(x, y, paperZBlocks)
		verdict := "compute bound"
		if a.MemoryBound {
			verdict = "memory bound"
		}
		if c == crossover {
			verdict += " (crossover)"
		}
		t.AddRow(strconv.Itoa(c), fmt.Sprintf("%.3g", a.ProcessingRate), fmt.Sprintf("%.3g", a.MemoryRate),
			fmt.Sprintf("%.3f", a.Ratio), verdict)
	}
	return tableOutput{t: t}, nil
}

// coDesign turns traffic profiles into the numbers the paper says should
// "guide vendors": the paper's own Table I profile, and the one measured by
// Table I's GNU and NMsort-2X cells on w. Those are Table I's cells — same
// keys, same cache, same supervisor — so after -exp=table1 they cost nothing.
func coDesign(_ ExperimentParams, w Workload) (Output, error) {
	tb, err := Table1Faults(w, false, fault.Config{})
	if err != nil {
		return nil, err
	}
	t := report.New(fmt.Sprintf("Vendor guidance (bandwidth-bound model), the paper's Table I profile and the one measured at N=%d keys, %d cores", w.N, w.Threads),
		"profile", "base_far", "nm_far", "nm_near", "min_rho", "speedup_2x", "speedup_4x", "speedup_8x", "ceiling")
	add := func(name string, p model.TrafficProfile) {
		g := model.VendorGuidance(paperCoreHz, paperCycles, paperBW, paperElem, paperZBlocks, p)
		f := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
		x := func(v float64) string { return fmt.Sprintf("%.2fx", v) }
		t.AddRow(name, f(p.BaseFar), f(p.NMFar), f(p.NMNear), fmt.Sprintf("%.2f", g.MinRho),
			x(g.SpeedupAt2X), x(g.SpeedupAt4X), x(g.SpeedupAt8X), x(g.Ceiling))
	}
	add("paper Table I (millions)", model.PaperProfile())
	gnu, nm := tb.Rows[0], tb.Rows[1]
	add(report.FailMark("measured", cmp.Or(gnu.Fail, nm.Fail)), model.TrafficProfile{
		BaseFar: float64(gnu.Result.FarAccesses),
		NMFar:   float64(nm.Result.FarAccesses),
		NMNear:  float64(nm.Result.NearAccesses),
	})
	return tableOutput{t: t, failed: tb.Failed()}, nil
}

// blockTransfers validates Theorem 6 (experiment M1): the sequential
// scratchpad sort recorded at six doublings of N up to w.N, its far and near
// line transfers beside the model's leading terms. M = 64 KiB, Z is the
// record-time L1, ρ = 4, and each size's keys are seeded by the size. The
// sizes record at once, each on its own recorder and Env.
func blockTransfers(_ ExperimentParams, w Workload) (Output, error) {
	const sp, rho = 64 * units.KiB, 4.0
	sizes, err := sizeAxis("m1", w.N, 2, 6, 1)
	if err != nil {
		return nil, err
	}
	t := report.New(fmt.Sprintf("Theorem 6: sequential scratchpad sort, measured line transfers vs the model (M=%v, Z=%v, B=64B, rho=%.0f)",
		sp, ScaledL1.Capacity, rho),
		"N", "far_lines", "near_lines", "scans", "model_far", "model_near")
	counts := make([]trace.LevelCounts, len(sizes))
	scans := make([]int, len(sizes))
	errs := make([]error, len(sizes))
	par.Each(len(sizes), func(i int) {
		n := sizes[i]
		// Count-only, never replayed: the row reads SeqStats, not a Record.
		rec := trace.NewCounter(1, ScaledL1, trace.DefaultCosts())
		env := core.NewEnv(1, sp, rec, 99)
		a := env.AllocFar(n)
		xrand.New(uint64(n)).Keys(a.D)
		scans[i] = core.SeqScratchpadSort(env, a, core.SeqOptions{}).Scans
		if !core.IsSorted(a.D) {
			errs[i] = fmt.Errorf("harness: m1: N=%d not sorted", n)
			return
		}
		counts[i] = rec.Count()
	})
	for i, n := range sizes {
		if errs[i] != nil {
			return nil, errs[i]
		}
		c := counts[i]
		p := model.Params{N: int64(n), Elem: 8, B: 64, Rho: rho, M: sp, Z: ScaledL1.Capacity, P: 1, PPrime: 1}
		pred := p.ScratchpadSort()
		// The model counts B-sized far blocks and ρB-sized near blocks; the
		// counters are 64-byte lines, so near lines = ρ × near blocks.
		t.AddRow(strconv.Itoa(n), strconv.FormatUint(c.Far(), 10), strconv.FormatUint(c.Near(), 10),
			strconv.Itoa(scans[i]), fmt.Sprintf("%.0f", pred.DRAMBlocks), fmt.Sprintf("%.0f", pred.SPBlocks*rho))
	}
	return tableOutput{t: t}, nil
}

// lemma5 measures Lemma 5 (experiment M2): the sequential sort run natively
// at six doublings of N up to w.N with m = 256 pivots in an M = 16 KiB
// scratchpad, its split quality (a bad split leaves a child above
// parent/√m, probability ~e^{-√m}) and recursion depth beside the model's.
func lemma5(_ ExperimentParams, w Workload) (Output, error) {
	const sp, m = 16 * units.KiB, 256
	sizes, err := sizeAxis("m2", w.N, 2, 6, 1)
	if err != nil {
		return nil, err
	}
	t := report.New(fmt.Sprintf("Lemma 5: bucketizing-scan split quality and recursion depth (M=%v, m=%d, e^-sqrt(m) = %.2g)",
		sp, m, math.Exp(-math.Sqrt(m))),
		"N", "good_splits", "bad_splits", "bad_frac", "scans", "depth", "model_depth")
	for _, n := range sizes {
		env := core.NewEnv(1, sp, nil, 42)
		a := env.AllocFar(n)
		xrand.New(44).Keys(a.D)
		st := core.SeqScratchpadSort(env, a, core.SeqOptions{SampleSize: m})
		if !core.IsSorted(a.D) {
			return nil, fmt.Errorf("harness: m2: N=%d not sorted", n)
		}
		frac := 0.0
		if splits := st.GoodSplits + st.BadSplits; splits > 0 {
			frac = float64(st.BadSplits) / float64(splits)
		}
		p := model.Params{N: int64(n), Elem: 8, B: 64, M: sp}
		t.AddRow(strconv.Itoa(n), strconv.Itoa(st.GoodSplits), strconv.Itoa(st.BadSplits),
			fmt.Sprintf("%.4f", frac), strconv.Itoa(st.Scans), strconv.Itoa(st.Depth), fmt.Sprintf("%.2f", p.ScanCount()))
	}
	return tableOutput{t: t}, nil
}

// innerSort isolates Corollaries 3 and 7 (experiment M3): x
// scratchpad-resident keys sorted by the multiway mergesort (runs of 128,
// fanout 8) and by quicksort, near lines per key, at x = w.N/64, /16, /4 and
// w.N. Each size gets a scratchpad of 24 bytes per key. The eight
// recordings run at once, each on its own recorder and Env.
func innerSort(_ ExperimentParams, w Workload) (Output, error) {
	sizes, err := sizeAxis("m3", w.N, 4, 4, 16)
	if err != nil {
		return nil, err
	}
	t := report.New(fmt.Sprintf("Corollaries 3 and 7: sorting x scratchpad-resident keys, near lines (Z=%v record L1)", ScaledL1.Capacity),
		"x", "merge_near", "quick_near", "merge_per_elem", "quick_per_elem")
	// Recording 2i is size i's mergesort, 2i+1 its quicksort.
	near := make([]uint64, 2*len(sizes))
	errs := make([]error, len(near))
	par.Each(len(near), func(k int) {
		x, quick := sizes[k/2], k%2 == 1
		// Count-only, never replayed: one thread probe, not a Record.
		rec := trace.NewCounter(1, ScaledL1, trace.DefaultCosts())
		env := core.NewEnv(1, units.Bytes(x)*24, rec, 3)
		a := env.MustAllocSP(x)
		tmp := env.MustAllocSP(x)
		xrand.New(9).Keys(a.D)
		tp := rec.Thread(0)
		if quick {
			core.QuickSort(tp, a)
		} else {
			a = core.MultiwayMergeSort(tp, a, tmp, 128, 8)
		}
		if !core.IsSorted(a.D) {
			errs[k] = fmt.Errorf("harness: m3: x=%d not sorted", x)
			return
		}
		near[k] = rec.Count().Near()
	})
	for i, x := range sizes {
		if err := cmp.Or(errs[2*i], errs[2*i+1]); err != nil {
			return nil, err
		}
		near := near[2*i : 2*i+2]
		t.AddRow(strconv.Itoa(x), strconv.FormatUint(near[0], 10), strconv.FormatUint(near[1], 10),
			fmt.Sprintf("%.2f", float64(near[0])/float64(x)), fmt.Sprintf("%.2f", float64(near[1])/float64(x)))
	}
	return tableOutput{t: t}, nil
}

// pemSP is the scratchpad of the PEM sweep: it holds the w.N keys and their
// sorted copy, which caps w.N at pemSP/16.
const pemSP = 4 * units.MiB

// pemSweep reproduces Theorem 8 (experiment M-PEM): the in-scratchpad
// parallel multiway mergesort — the PEM algorithm NMsort runs per chunk — on
// w.N scratchpad-resident keys with p′ = 4, 16 and 64 threads, each replayed
// on the smallest node that seats them at 4X. Sim time falls as 1/p′ until
// the near channels saturate.
func pemSweep(_ ExperimentParams, w Workload) (Output, error) {
	ps := []int{4, 16, 64}
	if w.N < ps[len(ps)-1] || units.Bytes(w.N)*16 > pemSP {
		return nil, fmt.Errorf("harness: -exp=pem sorts n keys on up to %d threads in a %v scratchpad; n = %d must be in [%d, %d]",
			ps[len(ps)-1], pemSP, w.N, ps[len(ps)-1], pemSP/16)
	}
	s := Sweep{Title: fmt.Sprintf("PEM sort scaling (Theorem 8), N=%d scratchpad-resident keys, 4X near bandwidth", w.N)}
	var jobs []replayJob
	var points []SweepPoint
	for _, p := range ps {
		cores := (p + 3) / 4 * 4
		cfg := NodeFor(cores, 16, pemSP)
		rec := recordingOf(AlgPEM, Workload{N: w.N, Seed: 3, Threads: p, SP: pemSP, Sup: w.Sup})
		jobs = append(jobs, replayJob{cfg: cfg, rec: rec})
		points = append(points, SweepPoint{Label: fmt.Sprintf("p'=%d", p), Cores: cores, Rho: cfg.BandwidthExpansion()})
	}
	return s.collect(w.Sup, replayPar(w.Par, len(jobs)), jobs, points)
}

// pemSort is the run of the PEM sort: w.N keys (seed 0) in the scratchpad
// sorted into a scratchpad copy by p′ = w.Threads threads, pivots seeded by
// w.Seed. Every thread needs a key, and the keys and their copy must fit.
func pemSort(env *core.Env, w Workload) error {
	p, n := w.Threads, w.N
	if n < p {
		return fmt.Errorf("needs a key per thread (n = %d, threads %d)", n, p)
	}
	src, ok := env.AllocSP(n)
	dst, okDst := env.AllocSP(n)
	if !ok || !okDst {
		return fmt.Errorf("cannot hold n = %d keys and their sorted copy (%v) in a %v scratchpad", n, units.Bytes(n)*16, w.SP)
	}
	sample := env.AllocFar(core.SampleLen(p))
	sampleTmp := env.AllocFar(core.SampleLen(p))
	xrand.New(0).Keys(src.D)
	bar := par.NewBarrier(p)
	ps := core.NewPMSort(p, src, dst, dst, sample, sampleTmp, bar)
	par.RunPoison(p, env.Rec, bar, ps.Run)
	if !core.IsSorted(dst.D) {
		return errors.New("left its output unsorted")
	}
	return nil
}
