package repro_test

// This file regenerates the paper's evaluation as Go benchmarks — one
// benchmark (or family) per table, figure-level claim, and model-validation
// experiment in DESIGN.md's index. Simulation outcomes are attached as
// benchmark metrics: simtime-ms (the paper's "Sim Time" row), far-acc and
// near-acc (the "DRAM Accesses" / "Scratchpad Accesses" rows), so
//
//	go test -bench=. -benchmem
//
// prints the reproduced numbers alongside the host-side cost of producing
// them. Benchmark sizes are scaled down from the cmd/ tools so the full
// suite runs in minutes; run `go run ./cmd/nmsim` and `go run ./cmd/sweep`
// for the full-size experiments recorded in EXPERIMENTS.md.

import (
	"runtime"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/kmeans"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/xrand"
)

// benchWorkload is the scaled Table I workload used by the simulation
// benchmarks: small enough for tens of iterations, large enough that runs
// exceed L2 shares and chunks exceed the aggregate L2.
func benchWorkload() harness.Workload {
	return harness.Workload{N: 1 << 17, Seed: 2015, Threads: 64, SP: units.MiB}
}

// reportSim attaches simulation outcomes as benchmark metrics.
func reportSim(b *testing.B, res machine.Result) {
	b.ReportMetric(res.SimTime.Seconds()*1e3, "simtime-ms")
	b.ReportMetric(float64(res.FarAccesses), "far-acc")
	b.ReportMetric(float64(res.NearAccesses), "near-acc")
}

// --- T1: Table I ---------------------------------------------------------

// benchTable1 records the algorithm once and replays it per iteration on
// the node with the given near-memory channels.
func benchTable1(b *testing.B, alg harness.Algorithm, channels int) {
	w := benchWorkload()
	rec, err := harness.Record(alg, w)
	if err != nil {
		b.Fatal(err)
	}
	var res machine.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = machine.Run(harness.NodeFor(w.Threads, channels, w.SP), rec.Trace)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSim(b, res)
}

func BenchmarkTable1GNUSort(b *testing.B)  { benchTable1(b, harness.AlgGNUSort, 8) }
func BenchmarkTable1NMSort2X(b *testing.B) { benchTable1(b, harness.AlgNMSort, 8) }
func BenchmarkTable1NMSort4X(b *testing.B) { benchTable1(b, harness.AlgNMSort, 16) }
func BenchmarkTable1NMSort8X(b *testing.B) { benchTable1(b, harness.AlgNMSort, 32) }

// --- R1: the recorder (ROADMAP item 1: "record ns/op, B/op per algorithm") -

// benchRecord records one Table I sort per iteration at the reference CLI
// size (what nmsim and bench/ run) and reports what the instrumented sort
// costs per op it records: host time, and bytes allocated — the figure
// scripts/bench.sh gates (ops-weighted over both sorts, like the benchmark
// ledger's trace.record_alloc_bytes_per_op), because a recorder that grew
// 32-byte op slices by doubling allocated 128 B per op where born-columnar
// chunks allocate ~15. Both include the native sort itself, as every
// recording does: 4 B/op of GNU sort's and 8 B/op of NMsort's are the
// sorts' own buffers.
func benchRecord(b *testing.B, alg harness.Algorithm) {
	w := harness.Workload{N: 1 << 20, Seed: 2015, Threads: 256, SP: 2 * units.MiB}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ops := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := harness.Record(alg, w)
		if err != nil {
			b.Fatal(err)
		}
		ops = res.Trace.Ops()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	perOp := 1 / float64(b.N) / float64(ops)
	b.ReportMetric(b.Elapsed().Seconds()*1e9*perOp, "ns/recorded-op")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)*perOp, "B/recorded-op")
	b.ReportMetric(float64(ops), "recorded-ops")
}

func BenchmarkRecordTable1GNUSort(b *testing.B) { benchRecord(b, harness.AlgGNUSort) }
func BenchmarkRecordTable1NMSort(b *testing.B)  { benchRecord(b, harness.AlgNMSort) }

// --- L2: the shared L2 as a replay meets it -------------------------------

// BenchmarkL2AccessInSitu prices cachesim.Access the way a Table I replay
// pays for it: the recorded NMsort access stream at the reference CLI size,
// the 256 threads taken round-robin, each access sent to its quad-core
// group's L2 — 64 caches whose sets take turns in the host's caches.
// cachesim's own BenchmarkAccess walks one warm 2-way cache and reads 4-6x
// cheaper than the same code costs here. The stream is flattened before the
// timer starts, so cursor decode is not in the figure.
func BenchmarkL2AccessInSitu(b *testing.B) {
	w := harness.Workload{N: 1 << 20, Seed: 2015, Threads: 256, SP: 2 * units.MiB}
	rec, err := harness.Record(harness.AlgNMSort, w)
	if err != nil {
		b.Fatal(err)
	}
	cfg := harness.NodeFor(w.Threads, 8, w.SP)
	cursors := make([]trace.Cursor, w.Threads)
	for tid := range cursors {
		cursors[tid] = rec.Trace.CursorAt(tid)
	}
	var addrs []uint64
	var route []uint8 // group<<1 | write
	for live := true; live; {
		live = false
		for tid := range cursors {
			if cur := &cursors[tid]; cur.Next() {
				live = true
				if cur.Cur.Kind == trace.OpAccess {
					r := uint8(tid/cfg.CoresPerGroup) << 1
					if cur.Cur.Write {
						r |= 1
					}
					addrs = append(addrs, cur.Cur.Addr)
					route = append(route, r)
				}
			}
		}
	}
	caches := make([]*cachesim.Cache, w.Threads/cfg.CoresPerGroup)
	var stats cachesim.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for g := range caches {
			caches[g] = cachesim.New(cfg.L2Capacity, cfg.LineSize, cfg.L2Ways)
		}
		for k, a := range addrs {
			caches[route[k]>>1].Access(a, route[k]&1 != 0)
		}
		stats = cachesim.Stats{}
		for _, c := range caches {
			s := c.Stats()
			stats.Hits += s.Hits
			stats.Misses += s.Misses
			stats.Writebacks += s.Writebacks
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(b.N)/float64(len(addrs)), "ns/access")
	b.ReportMetric(stats.MissRate(), "miss-rate")
	b.ReportMetric(float64(len(addrs)), "accesses")
}

// --- C1: bandwidth scaling (the ρ sweep behind "linear reduction") -------

func BenchmarkBandwidthSweep(b *testing.B) {
	w := benchWorkload()
	rec, err := harness.Record(harness.AlgNMSort, w)
	if err != nil {
		b.Fatal(err)
	}
	for _, ch := range []int{8, 16, 32} {
		name := map[int]string{8: "rho2", 16: "rho4", 32: "rho8"}[ch]
		b.Run(name, func(b *testing.B) {
			var res machine.Result
			for i := 0; i < b.N; i++ {
				res, err = machine.Run(harness.NodeFor(w.Threads, ch, w.SP), rec.Trace)
				if err != nil {
					b.Fatal(err)
				}
			}
			reportSim(b, res)
		})
	}
}

// --- C2: memory-bound crossover (core-count sweep) ------------------------

func BenchmarkCoreSweep(b *testing.B) {
	for _, cores := range []int{32, 64, 128} {
		for _, alg := range []harness.Algorithm{harness.AlgGNUSort, harness.AlgNMSort} {
			w := benchWorkload()
			w.Threads = cores
			b.Run(string(alg)+"/cores"+itoa(cores), func(b *testing.B) {
				rec, err := harness.Record(alg, w)
				if err != nil {
					b.Fatal(err)
				}
				var res machine.Result
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err = machine.Run(harness.NodeFor(cores, 32, w.SP), rec.Trace)
					if err != nil {
						b.Fatal(err)
					}
				}
				reportSim(b, res)
			})
		}
	}
}

// --- C3/C4 are derived from T1's access columns and cmd/membound ---------

// --- M1: Theorem 6 block-transfer validation ------------------------------

func BenchmarkBlockTransfersSeqSort(b *testing.B) {
	const sp = 64 * units.KiB
	for _, n := range []int{1 << 15, 1 << 17} {
		b.Run("n"+itoa(n), func(b *testing.B) {
			var far, near uint64
			for i := 0; i < b.N; i++ {
				rec := trace.NewRecorder(1, harness.ScaledL1, trace.DefaultCosts())
				env := core.NewEnv(1, sp, rec, uint64(i))
				a := env.AllocFar(n)
				xrand.New(uint64(n + i)).Keys(a.D)
				core.SeqScratchpadSort(env, a, core.SeqOptions{})
				c := rec.Finish().Count()
				far, near = c.Far(), c.Near()
			}
			p := model.Params{N: int64(n), Elem: 8, B: 64, Rho: 4,
				M: sp, Z: harness.ScaledL1.Capacity, P: 1, PPrime: 1}
			pred := p.ScratchpadSort()
			b.ReportMetric(float64(far), "far-lines")
			b.ReportMetric(float64(near), "near-lines")
			b.ReportMetric(float64(far)/pred.DRAMBlocks, "far-vs-model")
			b.ReportMetric(float64(near)/(pred.SPBlocks*p.Rho), "near-vs-model")
		})
	}
}

// --- M3: Corollary 7 — quicksort vs mergesort inside the scratchpad ------

func BenchmarkInnerSort(b *testing.B) {
	// Corollary 3 in isolation: sort a scratchpad-resident array with the
	// multiway mergesort (log_{Z/B} passes) vs quicksort (lg(x/Z) passes)
	// and report near-memory line transfers. The quicksort/mergesort gap
	// grows with x/Z, which is Corollary 7's point.
	const n = 1 << 18
	for _, quick := range []bool{false, true} {
		name := "mergesort"
		if quick {
			name = "quicksort"
		}
		b.Run(name, func(b *testing.B) {
			var near uint64
			for i := 0; i < b.N; i++ {
				rec := trace.NewRecorder(1, harness.ScaledL1, trace.DefaultCosts())
				env := core.NewEnv(1, units.Bytes(n)*24, rec, 3)
				a := env.MustAllocSP(n)
				tmp := env.MustAllocSP(n)
				xrand.New(9).Keys(a.D)
				tp := rec.Thread(0)
				if quick {
					core.QuickSort(tp, a)
				} else {
					core.MultiwayMergeSort(tp, a, tmp, 128, 8)
				}
				near = rec.Finish().Count().Near()
			}
			b.ReportMetric(float64(near), "near-lines")
			b.ReportMetric(float64(near)/float64(n), "near-lines/elem")
		})
	}
}

// --- A1: bucket-metadata batching ablation (Section IV-D) -----------------

func BenchmarkAblationSmallAppends(b *testing.B) {
	w := benchWorkload()
	w.Buckets = int(w.SP / 256) // the paper's Θ(M/B) bucket count
	for _, alg := range []harness.Algorithm{harness.AlgNMSort, harness.AlgNMScatter} {
		b.Run(string(alg), func(b *testing.B) {
			rec, err := harness.Record(alg, w)
			if err != nil {
				b.Fatal(err)
			}
			var res machine.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err = machine.Run(harness.NodeFor(w.Threads, 16, w.SP), rec.Trace)
				if err != nil {
					b.Fatal(err)
				}
			}
			reportSim(b, res)
		})
	}
}

// --- A2: DMA-engine ablation (§VII future work) ---------------------------

func BenchmarkAblationDMA(b *testing.B) {
	w := benchWorkload()
	for _, alg := range []harness.Algorithm{harness.AlgNMSort, harness.AlgNMSortDM} {
		b.Run(string(alg), func(b *testing.B) {
			rec, err := harness.Record(alg, w)
			if err != nil {
				b.Fatal(err)
			}
			var res machine.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err = machine.Run(harness.NodeFor(w.Threads, 16, w.SP), rec.Trace)
				if err != nil {
					b.Fatal(err)
				}
			}
			reportSim(b, res)
		})
	}
}

// --- K1: k-means extension (§VII) -----------------------------------------

func BenchmarkKMeans(b *testing.B) {
	const n, d, k = 1 << 13, 8, 16
	for _, scratch := range []bool{false, true} {
		name := "far"
		if scratch {
			name = "scratchpad"
		}
		b.Run(name, func(b *testing.B) {
			var far uint64
			for i := 0; i < b.N; i++ {
				rec := trace.NewRecorder(8, harness.ScaledL1, trace.DefaultCosts())
				env := core.NewEnv(8, 2*units.MiB, rec, 5)
				pts := kmeans.Points{V: env.AllocFar(n * d), Dims: d}
				kmeans.GenerateClustered(pts, k, 31)
				cfg := kmeans.DefaultConfig(k, d)
				cfg.MaxIters = 8
				if scratch {
					kmeans.Scratchpad(env, pts, cfg)
				} else {
					kmeans.Far(env, pts, cfg)
				}
				far = rec.Finish().Count().Far()
			}
			b.ReportMetric(float64(far), "far-lines")
		})
	}
}

// --- Native algorithm speed (uninstrumented) ------------------------------

func BenchmarkPureNMSort(b *testing.B) {
	const n = 1 << 18
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		env := core.NewEnv(8, units.MiB, nil, 1)
		a := env.AllocFar(n)
		xrand.New(uint64(i)).Keys(a.D)
		b.StartTimer()
		core.NMSort(env, a, core.NMOptions{})
	}
	b.SetBytes(n * 8)
}

func BenchmarkPureGNUSort(b *testing.B) {
	const n = 1 << 18
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		env := core.NewEnv(8, units.MiB, nil, 1)
		a := env.AllocFar(n)
		xrand.New(uint64(i)).Keys(a.D)
		b.StartTimer()
		core.GNUSort(env, a)
	}
	b.SetBytes(n * 8)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// --- Theorem 8: PEM sort scaling --------------------------------------

// BenchmarkPEMSortScaling measures the in-scratchpad parallel multiway
// mergesort (the PEM algorithm NMsort calls per chunk) across thread
// counts: sim time should fall with p' until the near channels saturate —
// Theorem 8's (N/p'L)·log_{Z/L}(N/L) block-transfer steps.
func BenchmarkPEMSortScaling(b *testing.B) {
	const n = 1 << 16
	for _, p := range []int{4, 16, 64} {
		b.Run("p"+itoa(p), func(b *testing.B) {
			var res machine.Result
			for i := 0; i < b.N; i++ {
				rec := trace.NewRecorder(p, harness.ScaledL1, trace.DefaultCosts())
				env := core.NewEnv(p, 4*units.MiB, rec, 3)
				src := env.MustAllocSP(n)
				dst := env.MustAllocSP(n)
				sample := env.AllocFar(core.SampleLen(p))
				sampleTmp := env.AllocFar(core.SampleLen(p))
				xrand.New(uint64(i)).Keys(src.D)
				bar := par.NewBarrier(p)
				ps := core.NewPMSort(p, src, dst, dst, sample, sampleTmp, bar)
				par.RunPoison(p, rec, bar, func(tid int, tp *trace.TP) {
					ps.Run(tid, tp)
				})
				if !core.IsSorted(dst.D) {
					b.Fatal("not sorted")
				}
				tr := rec.Finish()
				var err error
				res, err = machine.Run(harness.NodeFor((p+3)/4*4, 16, 4*units.MiB), tr)
				if err != nil {
					b.Fatal(err)
				}
			}
			reportSim(b, res)
		})
	}
}
