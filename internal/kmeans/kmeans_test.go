package kmeans

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/units"
)

func mkPoints(e *core.Env, n, d int, seed uint64) Points {
	pts := Points{V: e.AllocFar(n * d), Dims: d}
	GenerateClustered(pts, 4, seed)
	return pts
}

func TestFarConverges(t *testing.T) {
	e := core.NewEnv(4, units.MiB, nil, 1)
	pts := mkPoints(e, 1024, 4, 11)
	res := Far(e, pts, DefaultConfig(4, 4))
	if !res.Converged {
		t.Errorf("did not converge in %d iters (inertia %v)", res.Iters, res.Inertia)
	}
	if len(res.Centroids) != 4 || len(res.Assign) != 1024 {
		t.Fatalf("result shape wrong")
	}
}

func TestScratchpadMatchesFar(t *testing.T) {
	// Same data, same seed: both variants must produce identical
	// assignments and centroids — the scratchpad changes where bytes live,
	// never what is computed.
	mk := func() (*core.Env, Points) {
		e := core.NewEnv(4, units.MiB, nil, 1)
		return e, mkPoints(e, 512, 8, 22)
	}
	e1, p1 := mk()
	r1 := Far(e1, p1, DefaultConfig(4, 8))
	e2, p2 := mk()
	r2 := Scratchpad(e2, p2, DefaultConfig(4, 8))
	if r1.Iters != r2.Iters || r1.Converged != r2.Converged {
		t.Fatalf("iteration mismatch: %d vs %d", r1.Iters, r2.Iters)
	}
	for i := range r1.Assign {
		if r1.Assign[i] != r2.Assign[i] {
			t.Fatalf("assignment mismatch at %d", i)
		}
	}
	for c := range r1.Centroids {
		for j := range r1.Centroids[c] {
			if math.Abs(r1.Centroids[c][j]-r2.Centroids[c][j]) > 1e-9 {
				t.Fatalf("centroid mismatch at %d/%d", c, j)
			}
		}
	}
}

func TestRecoversPlantedClusters(t *testing.T) {
	e := core.NewEnv(2, units.MiB, nil, 1)
	pts := Points{V: e.AllocFar(2000 * 2), Dims: 2}
	centers := GenerateClustered(pts, 4, 33)
	res := Far(e, pts, DefaultConfig(4, 2))
	// Every found centroid should be near some planted center (blobs have
	// sigma 10, centers are hundreds apart).
	for _, c := range res.Centroids {
		best := math.Inf(1)
		for _, g := range centers {
			d := 0.0
			for j := range g {
				d += (c[j] - g[j]) * (c[j] - g[j])
			}
			if d < best {
				best = d
			}
		}
		if math.Sqrt(best) > 50 {
			t.Errorf("centroid %v is %f away from every planted center", c, math.Sqrt(best))
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	run := func(p int) Result {
		e := core.NewEnv(p, units.MiB, nil, 1)
		pts := mkPoints(e, 600, 4, 44)
		return Far(e, pts, DefaultConfig(4, 4))
	}
	a, b := run(1), run(8)
	if a.Iters != b.Iters {
		t.Fatalf("iters differ: %d vs %d", a.Iters, b.Iters)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("assignment differs at %d with different thread counts", i)
		}
	}
	if math.Abs(a.Inertia-b.Inertia) > math.Abs(a.Inertia)*1e-9 {
		t.Fatalf("inertia differs: %v vs %v", a.Inertia, b.Inertia)
	}
}

func TestTrafficSplit(t *testing.T) {
	// Far variant: all point traffic hits far memory every iteration.
	// Scratchpad variant: one far read, then near traffic per iteration —
	// the §VII mechanism. Compare recorded line counts.
	mkTraced := func(scratch bool) trace.LevelCounts {
		rec := trace.NewRecorder(4, trace.L1Geometry{Capacity: 4 * units.KiB, LineSize: 64, Ways: 2}, trace.DefaultCosts())
		e := core.NewEnv(4, units.MiB, rec, 1)
		pts := mkPoints(e, 2048, 8, 55)
		cfg := DefaultConfig(8, 8)
		cfg.MaxIters = 6
		cfg.Tol = 0 // force all iterations
		if scratch {
			Scratchpad(e, pts, cfg)
		} else {
			Far(e, pts, cfg)
		}
		return rec.Finish(nil).Count()
	}
	far := mkTraced(false)
	sp := mkTraced(true)
	if far.Near() != 0 {
		t.Errorf("far variant touched near memory %d times", far.Near())
	}
	if sp.Near() == 0 {
		t.Error("scratchpad variant never touched near memory")
	}
	// Scratchpad far traffic should be a small fraction: one ingest vs six
	// iteration scans.
	if ratio := float64(sp.Far()) / float64(far.Far()); ratio > 0.5 {
		t.Errorf("scratchpad variant far-traffic ratio %.2f, want < 0.5 (far=%d sp=%d)",
			ratio, far.Far(), sp.Far())
	}
}

func TestScratchpadTooSmallPanics(t *testing.T) {
	e := core.NewEnv(2, 4*units.KiB, nil, 1)
	pts := mkPoints(e, 4096, 8, 66)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when points exceed scratchpad")
		}
	}()
	Scratchpad(e, pts, DefaultConfig(4, 8))
}

func TestPointsAccessors(t *testing.T) {
	e := core.NewEnv(1, units.MiB, nil, 1)
	pts := Points{V: e.AllocFar(10 * 3), Dims: 3}
	pts.set(nil, 2, 1, -7.5)
	if got := pts.get(nil, 2, 1); got != -7.5 {
		t.Errorf("Get = %v", got)
	}
	if pts.len() != 10 {
		t.Errorf("Len = %d", pts.len())
	}
}
