package harness

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/kmeans"
	"repro/internal/units"
)

// The shape of every k-means recording (experiment K1, §VII): points of
// kmeansDims coordinates in kmeansK clusters, kmeansIters Lloyd iterations.
const kmeansDims, kmeansK, kmeansIters = 4, 4, 6

// clustering is the run of one k-means variant: w.N points in kmeansK blobs
// generated from w.Seed, clustered for exactly kmeansIters iterations in far
// memory or, scratch, pinned in the scratchpad first. Its output is not
// checked: the kmeans tests hold the two variants to each other.
func clustering(scratch bool) func(*core.Env, Workload) error {
	return func(env *core.Env, w Workload) error {
		need := units.Bytes(w.N) * 8 * kmeansDims
		switch {
		case w.N < 1:
			return errors.New("needs at least one point")
		case scratch && need > w.SP&^63: // SPMalloc hands out whole 64-byte lines
			return fmt.Errorf("cannot pin n = %d points of %d dims (%v) in a %v scratchpad", w.N, kmeansDims, need, w.SP)
		}
		pts := kmeans.Points{V: env.AllocFar(w.N * kmeansDims), Dims: kmeansDims}
		kmeans.GenerateClustered(pts, kmeansK, w.Seed)
		cfg := kmeans.DefaultConfig(kmeansK, kmeansDims)
		cfg.MaxIters = kmeansIters
		cfg.Tol = 0 // fixed iteration count: identical work across variants
		if scratch {
			kmeans.Scratchpad(env, pts, cfg)
		} else {
			kmeans.Far(env, pts, cfg)
		}
		return nil
	}
}

// KMeansSweep reproduces experiment K1 on the full simulator: the far-only
// baseline and the scratchpad-pinned variant replayed at 2X/4X/8X near
// bandwidth. The paper's claim — "all our k-means algorithms run a factor
// of ρ faster using scratchpad" — shows as the scratchpad variant's time
// falling with ρ while the baseline stays flat (one shared replay, like
// BandwidthSweep's; TestKMeansSweepShape measures the three nodes).
func KMeansSweep(w Workload) (Sweep, error) {
	s := Sweep{Title: fmt.Sprintf("k-means sweep, %d points x %d dims, k=%d, %d iterations, %d cores",
		w.N, kmeansDims, kmeansK, kmeansIters, w.Threads)}
	return s.overBandwidth(w, AlgKMeansFar, AlgKMeansSP)
}
