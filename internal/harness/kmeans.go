package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kmeans"
	"repro/internal/par"
	"repro/internal/trace"
	"repro/internal/units"
)

// KMeansWorkload describes one clustering experiment (the §VII extension).
type KMeansWorkload struct {
	Points int
	Dims   int
	K      int
	Iters  int
	Seed   uint64
	Th     int         // logical threads
	SP     units.Bytes // scratchpad capacity

	// Par is the replay worker count (like Workload.Par): 0 means
	// GOMAXPROCS, 1 forces sequential replay; byte-identical at any value.
	Par int

	// Sup supervises every replay (like Workload.Sup; nil is the zero one).
	Sup *Supervisor
}

// DefaultKMeans returns a clustering workload whose point set fits the
// scratchpad — the "many sizes of data and k" regime of §VII — with a
// small enough k·d that the assignment step is memory-bandwidth bound on
// a 256-core node (distance arithmetic is a few dozen cycles per point
// while every iteration streams the whole point set).
func DefaultKMeans() KMeansWorkload {
	// 2^18 points x 4 dims x 8B = 8MiB: larger than the 256-core node's
	// 2MiB aggregate L2 (so iterations stream from memory), smaller than
	// the 12MiB scratchpad (so pinning is possible).
	return KMeansWorkload{Points: 1 << 18, Dims: 4, K: 4, Iters: 6, Seed: 31, Th: 256, SP: 12 * units.MiB}
}

// RecordKMeans records one k-means run (scratchpad-pinned or far-only)
// and returns its trace.
func RecordKMeans(w KMeansWorkload, scratch bool) (*trace.Trace, kmeans.Result, error) {
	rec := trace.NewRecorder(w.Th, ScaledL1, trace.DefaultCosts())
	env := core.NewEnv(w.Th, w.SP, rec, w.Seed)
	pts := kmeans.Points{V: env.AllocFar(w.Points * w.Dims), Dims: w.Dims}
	kmeans.GenerateClustered(pts, w.K, w.Seed)
	cfg := kmeans.DefaultConfig(w.K, w.Dims)
	cfg.MaxIters = w.Iters
	cfg.Tol = 0 // fixed iteration count: identical work across variants
	var res kmeans.Result
	if scratch {
		res = kmeans.Scratchpad(env, pts, cfg)
	} else {
		res = kmeans.Far(env, pts, cfg)
	}
	tr := rec.FinishPar(par.Each)
	if err := tr.Columns().ValidatePar(par.Each); err != nil {
		return nil, res, fmt.Errorf("harness: kmeans trace invalid: %w", err)
	}
	return tr, res, nil
}

// kmeansRecording declares one RecordKMeans run.
func kmeansRecording(name string, w KMeansWorkload, scratch bool) *recording {
	return &recording{name: name, record: func() (*trace.Trace, bool, error) {
		tr, _, err := RecordKMeans(w, scratch)
		return tr, false, err
	}}
}

// KMeansSweep reproduces experiment K1 on the full simulator: the far-only
// baseline and the scratchpad-pinned variant replayed at 2X/4X/8X near
// bandwidth. The paper's claim — "all our k-means algorithms run a factor
// of ρ faster using scratchpad" — shows as the scratchpad variant's time
// falling with ρ while the baseline stays flat (one shared replay, like
// BandwidthSweep's; TestKMeansSweepShape measures the three nodes).
func KMeansSweep(w KMeansWorkload) (Sweep, error) {
	s := Sweep{Title: fmt.Sprintf("k-means sweep, %d points x %d dims, k=%d, %d iterations, %d cores",
		w.Points, w.Dims, w.K, w.Iters, w.Th)}

	var jobs []replayJob
	var points []SweepPoint
	variants := []*recording{kmeansRecording("kmeans-far", w, false), kmeansRecording("kmeans-sp", w, true)}
	for _, ch := range []int{8, 16, 32} {
		for _, rec := range variants {
			cfg := NodeFor(w.Th, ch, w.SP)
			jobs = append(jobs, replayJob{cfg: cfg, rec: rec})
			points = append(points, SweepPoint{
				Label: fmt.Sprintf("%s@%dX", rec.name, ch/4), Cores: w.Th,
				Rho: cfg.BandwidthExpansion(),
			})
		}
	}
	return s.collect(w.Sup, replayPar(w.Par, len(jobs)), jobs, points)
}
