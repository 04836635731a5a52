// Package kmeans implements the paper's §VII extension: k-means clustering
// that exploits the scratchpad's bandwidth through algorithmically
// predictable prefetching. The paper reports that all its k-means variants
// "run a factor of ρ faster using scratchpad for many sizes of data and k".
//
// The mechanism: Lloyd's algorithm re-reads the full point set every
// iteration. When the point set fits the scratchpad, paying one far-memory
// transfer to pin it near the processor converts every subsequent
// iteration's traffic into near-memory traffic at ρ times the bandwidth —
// exactly the scratchpad's intended use ("prefetching data that is known to
// be needed", Section VI-B1).
package kmeans

import (
	"math"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Config parameterizes a clustering run.
type Config struct {
	K        int     // clusters
	Dims     int     // point dimensionality
	MaxIters int     // iteration cap
	Tol      float64 // mean-squared centroid movement threshold for convergence
	Seed     uint64  // centroid initialization seed

	// CyclesPerDim is the compute charge per dimension per centroid
	// distance evaluation (multiply-add plus loop overhead).
	CyclesPerDim int64
}

// DefaultConfig returns a workload shaped like a small clustering job.
func DefaultConfig(k, dims int) Config {
	return Config{K: k, Dims: dims, MaxIters: 20, Tol: 1e-6, Seed: 7, CyclesPerDim: 4}
}

// Result reports a clustering outcome.
type Result struct {
	Centroids [][]float64
	Assign    []int32
	Iters     int
	Converged bool
	Inertia   float64 // sum of squared distances to assigned centroids
}

// Points is a traced point matrix: n points of Dims float64 coordinates,
// stored row-major as IEEE-754 bit patterns in a traced array.
type Points struct {
	V    trace.U64
	Dims int
}

// len returns the number of points.
func (p Points) len() int { return p.V.Len() / p.Dims }

// get reads coordinate j of point i through tp.
func (p Points) get(tp *trace.TP, i, j int) float64 {
	return math.Float64frombits(p.V.Get(tp, i*p.Dims+j))
}

// set writes coordinate j of point i through tp.
func (p Points) set(tp *trace.TP, i, j int, v float64) {
	p.V.Set(tp, i*p.Dims+j, math.Float64bits(v))
}

// GenerateClustered fills pts with k well-separated Gaussian blobs so the
// clustering has ground truth to find. Returns the blob centers.
func GenerateClustered(pts Points, k int, seed uint64) [][]float64 {
	rng := xrand.New(seed)
	d := pts.Dims
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = make([]float64, d)
		for j := range centers[c] {
			centers[c][j] = float64(rng.Intn(2000)) - 1000
		}
	}
	n := pts.len()
	for i := 0; i < n; i++ {
		c := centers[i%k]
		for j := 0; j < d; j++ {
			// An explicit float64() rounds the product, which forbids a fused
			// multiply-add, so a trace is the same bytes on every GOARCH (the
			// record caches' keys name none); lloyd's sums do the same.
			pts.set(nil, i, j, c[j]+float64(gauss(rng)*10))
		}
	}
	return centers
}

// gauss draws a standard normal via Box-Muller.
func gauss(rng *xrand.RNG) float64 {
	u1 := rng.Float64()
	for u1 == 0 {
		u1 = rng.Float64()
	}
	u2 := rng.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Far runs Lloyd's algorithm with the point set resident in far memory —
// the DRAM-only baseline. Every iteration streams all points from far
// memory.
func Far(e *core.Env, pts Points, cfg Config) Result {
	return lloyd(e, pts, cfg)
}

// Scratchpad pins the point set in near memory first (one far read), then
// runs every iteration against the scratchpad. The point set must fit; the
// caller sizes M accordingly (the "many sizes of data" regime of §VII).
func Scratchpad(e *core.Env, pts Points, cfg Config) Result {
	spv, ok := e.AllocSP(pts.V.Len())
	if !ok {
		panic("kmeans: point set does not fit the scratchpad; use Far")
	}
	near := Points{V: spv, Dims: pts.Dims}
	par.Run(e.P, e.Rec, func(tid int, tp *trace.TP) {
		lo, hi := par.Span(pts.V.Len(), e.P, tid)
		trace.Copy(tp, spv.Slice(lo, hi), pts.V.Slice(lo, hi))
	})
	res := lloyd(e, near, cfg)
	e.FreeSP(spv.Base)
	return res
}

// lloyd is the shared iteration engine. Centroids are tiny and treated as
// cache-resident working state (plain values, compute charged); the point
// stream is what moves through the memory system.
func lloyd(e *core.Env, pts Points, cfg Config) Result {
	n, d, k := pts.len(), cfg.Dims, cfg.K
	if k <= 0 || d != pts.Dims || n == 0 {
		panic("kmeans: bad configuration")
	}

	// Initialize centroids from k distinct points (deterministic).
	rng := xrand.New(cfg.Seed)
	cent := make([][]float64, k)
	init := rng.SampleNoReplace(n, min(k, n))
	for c := range cent {
		cent[c] = make([]float64, d)
		for j := 0; j < d; j++ {
			cent[c][j] = pts.get(nil, init[c%len(init)], j)
		}
	}

	assign := make([]int32, n)
	res := Result{Assign: assign}
	bar := par.NewBarrier(e.P)

	sums := make([][][]float64, e.P) // per-thread [k][d] accumulators
	counts := make([][]int64, e.P)
	inertia := make([]float64, e.P)
	for t := range sums {
		sums[t] = make([][]float64, k)
		for c := range sums[t] {
			sums[t][c] = make([]float64, d)
		}
		counts[t] = make([]int64, k)
	}

	var moved float64
	var stop bool
	par.Run(e.P, e.Rec, func(tid int, tp *trace.TP) {
		lo, hi := par.Span(n, e.P, tid)
		for it := 0; ; it++ {
			// Assignment step: each thread scans its points.
			for c := range sums[tid] {
				for j := range sums[tid][c] {
					sums[tid][c][j] = 0
				}
				counts[tid][c] = 0
			}
			inertia[tid] = 0
			for i := lo; i < hi; i++ {
				best, bestD := 0, math.Inf(1)
				for c := 0; c < k; c++ {
					var dist float64
					for j := 0; j < d; j++ {
						diff := pts.get(tp, i, j) - cent[c][j]
						dist += float64(diff * diff)
					}
					tp.Compute(int64(d) * cfg.CyclesPerDim)
					if dist < bestD {
						best, bestD = c, dist
					}
					tp.Compare(1)
				}
				assign[i] = int32(best)
				inertia[tid] += bestD
				for j := 0; j < d; j++ {
					sums[tid][best][j] += pts.get(tp, i, j)
				}
				counts[tid][best]++
			}
			bar.Wait(tp)

			// Update step: thread 0 reduces and moves centroids.
			if tid == 0 {
				moved = 0
				res.Inertia = 0
				for t := 0; t < e.P; t++ {
					res.Inertia += inertia[t]
				}
				for c := 0; c < k; c++ {
					var cnt int64
					sum := make([]float64, d)
					for t := 0; t < e.P; t++ {
						cnt += counts[t][c]
						for j := 0; j < d; j++ {
							sum[j] += sums[t][c][j]
						}
					}
					if cnt == 0 {
						continue // empty cluster keeps its centroid
					}
					for j := 0; j < d; j++ {
						nc := sum[j] / float64(cnt)
						moved += float64((nc - cent[c][j]) * (nc - cent[c][j]))
						cent[c][j] = nc
					}
				}
				tp.Compute(int64(k) * int64(d) * int64(e.P) * 2)
				res.Iters = it + 1
				stop = moved/float64(k) < cfg.Tol || it+1 >= cfg.MaxIters
				if moved/float64(k) < cfg.Tol {
					res.Converged = true
				}
			}
			bar.Wait(tp)
			if stop {
				break
			}
		}
	})

	res.Centroids = cent
	return res
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
