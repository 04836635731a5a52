package harness

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/kmeans"
	"repro/internal/units"
)

// The shape of every k-means recording (experiment K1, §VII): points of
// kmeansDims coordinates in kmeansK clusters, kmeansIters Lloyd iterations.
const kmeansDims, kmeansK, kmeansIters = 4, 4, 6

// clustering is the run of one k-means variant: w.N points in kmeansK blobs
// generated from w.Seed, clustered for exactly kmeansIters iterations in far
// memory or, scratch, pinned in the scratchpad first. It refuses a malformed
// clustering (checkClustering); the kmeans tests hold the two variants to
// each other.
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
		var res kmeans.Result
		if scratch {
			res = kmeans.Scratchpad(env, pts, cfg)
		} else {
			res = kmeans.Far(env, pts, cfg)
		}
		return checkClustering(res, w.N)
	}
}

// checkClustering refuses a clustering of n points that is not the one the
// recording asked for: exactly kmeansIters iterations and no convergence
// (the tolerance is 0), every point in one of kmeansK clusters, kmeansK
// centroids of kmeansDims finite coordinates and a finite, non-negative
// inertia. It reads native values only and compares them, so the
// recording's trace does not move.
func checkClustering(res kmeans.Result, n int) error {
	switch {
	case res.Iters != kmeansIters:
		return fmt.Errorf("ran %d iterations, want %d", res.Iters, kmeansIters)
	case res.Converged:
		return errors.New("converged under a zero tolerance")
	case len(res.Assign) != n:
		return fmt.Errorf("assigned %d of %d points", len(res.Assign), n)
	case len(res.Centroids) != kmeansK:
		return fmt.Errorf("has %d centroids, want %d", len(res.Centroids), kmeansK)
	case !(res.Inertia >= 0) || math.IsInf(res.Inertia, 1):
		return fmt.Errorf("has inertia %v", res.Inertia)
	}
	for i, c := range res.Assign {
		if c < 0 || c >= kmeansK {
			return fmt.Errorf("assigned point %d to cluster %d of %d", i, c, kmeansK)
		}
	}
	for c, cent := range res.Centroids {
		if len(cent) != kmeansDims {
			return fmt.Errorf("centroid %d has %d coordinates, want %d", c, len(cent), kmeansDims)
		}
		for _, x := range cent {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("centroid %d has coordinate %v", c, x)
			}
		}
	}
	return nil
}

// kmeansSweep reproduces experiment K1 on the full simulator: the far-only
// baseline and the scratchpad-pinned variant replayed at 2X/4X/8X near
// bandwidth. The paper's claim — "all our k-means algorithms run a factor
// of ρ faster using scratchpad" — shows as the scratchpad variant's time
// falling with ρ while the baseline stays flat (one shared replay, like
// BandwidthSweep's; TestKMeansSweepShape measures the three nodes).
func kmeansSweep(w Workload) (Sweep, error) {
	s := Sweep{Title: fmt.Sprintf("k-means sweep, %d points x %d dims, k=%d, %d iterations, %d cores",
		w.N, kmeansDims, kmeansK, kmeansIters, w.Threads)}
	return s.overBandwidth(w, AlgKMeansFar, AlgKMeansSP)
}
