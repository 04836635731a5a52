package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/bench/internal/stat"
	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

// The four Table I cells: which recording replays on how many near channels.
var table1Cells = []struct {
	label    string
	metric   string
	channels int
	nmsort   bool
}{
	{"GNU Sort", "machine.replay_gnu_s", 8, false},
	{"NMsort (2X)", "machine.replay_nm2x_s", 8, true},
	{"NMsort (4X)", "machine.replay_nm4x_s", 16, true},
	{"NMsort (8X)", "machine.replay_nm8x_s", 32, true},
}

// pipelineRun is one in-process pass of what `nmsim -par 1` does: record
// both sorts, replay the four cells one after another, render the table.
type pipelineRun struct {
	root    int // the pass's root span
	wall    float64
	gnu, nm harness.RecordResult
	recordS [2]float64
	replayS [4]float64
	results [4]machine.Result
	renderS float64
	text    string              // the bytes nmsim prints
	mem     [3]runtime.MemStats // before recording, after recording, after replay
}

// pipeline runs the pass with one span per call into a layer.
func pipeline(s *spanLog, w harness.Workload) *pipelineRun {
	p := &pipelineRun{root: len(s.spans)}
	p.wall = s.in("table1", func() {
		runtime.ReadMemStats(&p.mem[0])
		p.recordS[0] = s.in("harness.Record gnusort", func() { p.gnu = must(harness.Record(harness.AlgGNUSort, w)) })
		p.recordS[1] = s.in("harness.Record nmsort", func() { p.nm = must(harness.Record(harness.AlgNMSort, w)) })
		runtime.ReadMemStats(&p.mem[1])
		t := harness.Table{Title: fmt.Sprintf("SST-style simulation, N=%d keys, %d cores", w.N, w.Threads)}
		for i, c := range table1Cells {
			cfg := harness.NodeFor(w.Threads, c.channels, w.SP)
			tr := p.gnu.Trace
			if c.nmsort {
				tr = p.nm.Trace
			}
			p.replayS[i] = s.in("machine.Run "+c.label, func() { p.results[i] = must(machine.Run(cfg, tr)) })
			row := harness.Row{Name: c.label, Result: p.results[i], RelTime: 1}
			if i > 0 {
				row.Rho = cfg.BandwidthExpansion()
				row.RelTime = p.results[i].SimTime.Seconds() / p.results[0].SimTime.Seconds()
			}
			t.Rows = append(t.Rows, row)
		}
		runtime.ReadMemStats(&p.mem[2])
		p.renderS = s.in("report.Table.Render", func() {
			p.text = t.String()
			check(t.Report().Render(&bytes.Buffer{}, report.CSV))
		})
	})
	return p
}

// table1 is the ledger of the reference run: where `nmsim -par 1` spends
// its wall time, layer by layer, with a CPU profile folded by package.
func (l *ledger) table1(s *spanLog) {
	w := l.cliWorkload()

	// The floor under recording: the same sorts with no recorder attached.
	for _, p := range []struct {
		name string
		sort func(*core.Env, trace.U64)
	}{
		{"core.pure_gnusort_s", core.GNUSort},
		{"core.pure_nmsort_s", func(e *core.Env, a trace.U64) { core.NMSort(e, a, core.NMOptions{}) }},
	} {
		env := core.NewEnv(w.Threads, w.SP, nil, w.Seed)
		a := env.AllocFar(w.N)
		workload.Fill(a.D, workload.Uniform, w.Seed^0xDA7A)
		l.set(p.name, s.in(p.name, func() { p.sort(env, a) }))
		l.check(core.IsSorted(a.D), "%s left its input unsorted", p.name)
	}

	gc0, total0 := cpuSeconds()
	var sys0 syscall.Rusage
	check(syscall.Getrusage(syscall.RUSAGE_SELF, &sys0))
	var profile bytes.Buffer
	check(pprof.StartCPUProfile(&profile))
	p := pipeline(s, w)
	pprof.StopCPUProfile()
	var sys1 syscall.Rusage
	check(syscall.Getrusage(syscall.RUSAGE_SELF, &sys1))
	gc1, total1 := cpuSeconds()
	l.gnu, l.nm = p.gnu, p.nm

	fmt.Fprint(l.digest, p.text)
	if w.Seed == 2015 && w.N == 1<<20 && w.Threads == 256 {
		golden := must(os.ReadFile(filepath.Join(filepath.Dir(l.out), "golden", "table1-cold.seed2015.sha256")))
		l.check(sha(p.text) == string(bytes.TrimSpace(golden)), "the in-process Table I differs from bench/golden")
	}

	ops := float64(p.gnu.Trace.Ops() + p.nm.Trace.Ops())
	record := p.recordS[0] + p.recordS[1]
	l.set("trace.record_gnusort_s", p.recordS[0])
	l.set("trace.record_nmsort_s", p.recordS[1])
	l.set("trace.record_overhead_x", record/(l.metrics["core.pure_gnusort_s"]+l.metrics["core.pure_nmsort_s"]))
	l.set("trace.record_ns_per_op", record*1e9/ops)
	l.set("trace.record_alloc_bytes_per_op", float64(p.mem[1].TotalAlloc-p.mem[0].TotalAlloc)/ops)
	l.set("trace.record_ops", ops)
	l.set("trace.validate_ms", 1e3*s.in("trace.Validate", func() {
		check(p.gnu.Trace.Validate())
		check(p.nm.Trace.Validate())
	}))

	var replay, events, accesses float64
	var l2 cachesim.Stats
	for i, c := range table1Cells {
		r := p.results[i]
		l.set(c.metric, p.replayS[i])
		replay += p.replayS[i]
		events += float64(r.Events)
		accesses += float64(r.NearAccesses + r.FarAccesses)
		l2.Hits += r.L2.Hits
		l2.Misses += r.L2.Misses
	}
	l.set("machine.ns_per_event", replay*1e9/events)
	l.set("machine.events_per_access", events/accesses)
	l.set("machine.allocs_per_event", float64(p.mem[2].Mallocs-p.mem[1].Mallocs)/events)
	l.set("engine.events", events)
	l.set("cachesim.l2_miss_rate", l2.MissRate())
	// The simulated device figures of the cell that uses both memories.
	nm2x := p.results[1]
	l.set("dram.row_hit_rate", nm2x.FarStats.RowHitRate())
	l.set("dram.utilization", nm2x.FarUtilization)
	l.set("spmem.utilization", nm2x.NearUtilization)
	l.set("noc.utilization", nm2x.NoCUtilization)
	l.set("report.render_us", p.renderS*1e6)
	l.set("harness.cells", float64(len(table1Cells)))

	// Where the pass's CPU went. Every profiled nanosecond belongs to the
	// package of its leaf function, so the shares of all packages sum to 1;
	// the two cumulative shares answer the roadmap's two named suspects.
	const pop, growslice = "engine.(*queue).pop", "runtime.growslice"
	flat, cum := fold(must(parseCPUProfile(profile.Bytes())), pop, growslice)
	for _, pkg := range []string{"machine", "engine", "cachesim", "dram", "spmem", "noc"} {
		l.set(pkg+".cpu_share", flat[pkg])
	}
	l.set("engine.pop_cpu_share", cum[pop])
	l.set("runtime.growslice_cpu_share", cum[growslice])
	l.set("runtime.gc_cpu_share", (gc1-gc0)/(total1-total0))
	l.set("runtime.sys_s", tv(sys1.Stime)-tv(sys0.Stime))
	l.set("runtime.heap_peak_mib", float64(p.mem[2].HeapSys)/(1<<20))
	l.set("bench.span_sum_over_wall", s.childSeconds(p.root)/p.wall)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// cpuSeconds reads the runtime's own CPU accounting: GC and total.
func cpuSeconds() (gc, total float64) {
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(samples)
	return samples[0].Value.Float64(), samples[1].Value.Float64()
}

// storage is the ledger of trace serialization: every step nmtrace convert,
// nmtrace info, a daemon upload and a cache lookup are made of, on the two
// CLI-size recordings, each step summed over both.
func (l *ledger) storage(s *spanLog) {
	seconds := map[string]float64{} // per metric, summed over both traces
	var ops, v3Bytes, v2Bytes, walked, cursorV3, cursorMem float64
	s.in("trace-store", func() {
		for i, tr := range []*trace.Trace{l.gnu.Trace, l.nm.Trace} {
			var v3 []byte
			var v2 bytes.Buffer
			seconds["trace.encode_v3_ms"] += s.in("trace.EncodeColumnar", func() { v3 = must(trace.EncodeColumnar(tr)) })
			seconds["trace.write_v2_ms"] += s.in("trace.Trace.WriteTo", func() { must(tr.WriteTo(&v2)) })
			seconds["trace.read_v2_ms"] += s.in("trace.ReadTrace", func() { must(trace.ReadTrace(bytes.NewReader(v2.Bytes()))) })
			path := filepath.Join(l.scratch, fmt.Sprintf("probe-%d.nmt3", i))
			check(os.WriteFile(path, v3, 0o644))
			var col *trace.Columnar
			seconds["trace.open_v3_us"] += s.in("trace.Open", func() { col = must(trace.Open(path)) })
			seconds["trace.validate_v3_ms"] += s.in("trace.Columnar.Validate", func() { check(col.Validate()) })
			seconds["trace.verify_v3_ms"] += s.in("trace.Columnar.Verify", func() { check(col.Verify()) })
			var back *trace.Trace
			seconds["trace.decode_v3_ms"] += s.in("trace.Columnar.Decode", func() { back = must(col.Decode()) })
			cursorV3 += s.in("trace.CursorAt v3", func() { walked += walk(col) })
			cursorMem += s.in("trace.CursorAt mem", func() { walk(tr) })
			l.check(must(back.Digest()) == must(tr.Digest()), "trace %d: v3 round trip changed the digest", i)
			check(col.Close())
			ops += float64(tr.Ops())
			v3Bytes += float64(len(v3))
			v2Bytes += float64(v2.Len())
		}
	})
	for name, sec := range seconds {
		scale := 1e3 // _ms
		if strings.HasSuffix(name, "_us") {
			scale = 1e6
		}
		l.set(name, sec*scale)
	}
	l.check(walked == ops, "cursors walked %v ops of %v", walked, ops)
	l.set("trace.cursor_v3_ns_per_op", cursorV3*1e9/ops)
	l.set("trace.cursor_mem_ns_per_op", cursorMem*1e9/ops)
	l.set("trace.v3_bytes_per_op", v3Bytes/ops)
	l.set("trace.v3_over_v2_bytes", v3Bytes/v2Bytes)
}

var sink uint64 // keeps the cursor walks from being optimized away

// walk drains every thread's cursor and returns the ops it saw.
func walk(src trace.Source) float64 {
	n := 0
	for tid := 0; tid < src.Threads(); tid++ {
		cur := src.CursorAt(tid)
		for cur.Next() {
			sink += cur.Cur.Addr
			n++
		}
		check(cur.Err())
	}
	return float64(n)
}

// sweep is the ledger of what `sweep -trace-cache` adds to replay: the disk
// record cache at the CLI size, then at serve-mix's size the three ratios
// that each cost several replays, and two isolated micro-probes of the
// replay kernel's inner loops for comparison with its in-situ cost.
func (l *ledger) sweep(s *spanLog) {
	s.in("sweep-warm", func() {
		w := l.cliWorkload()
		rc := must(harness.NewDiskRecordCache(must(os.MkdirTemp(l.scratch, "probe-cache-"))))
		l.set("harness.diskcache_complete_ms", 1e3*s.in("harness.DiskRecordCache.CompleteRecord", func() {
			rc.CompleteRecord(harness.AlgGNUSort, harness.RecordKey(w), l.gnu)
			rc.CompleteRecord(harness.AlgNMSort, harness.RecordKey(w), l.nm)
		}))
		l.set("harness.diskcache_lookup_ms", 1e3*s.in("harness.DiskRecordCache.LookupRecord", func() {
			_, ok1 := rc.LookupRecord(harness.AlgGNUSort, harness.RecordKey(w))
			_, ok2 := rc.LookupRecord(harness.AlgNMSort, harness.RecordKey(w))
			l.check(ok1 && ok2, "the disk record cache lost a trace it was just given")
		}))

		// In-situ L2 cost without the rest of the machine: the recorded
		// NMsort address stream, threads interleaved, through one cache per
		// quad-core group.
		cfg := harness.NodeFor(w.Threads, 8, w.SP)
		caches := make([]*cachesim.Cache, w.Threads/cfg.CoresPerGroup)
		for g := range caches {
			caches[g] = cachesim.New(cfg.L2Capacity, cfg.LineSize, cfg.L2Ways)
		}
		cursors := make([]trace.Cursor, w.Threads)
		for tid := range cursors {
			cursors[tid] = l.nm.Trace.CursorAt(tid)
		}
		accesses := 0
		seconds := s.in("cachesim.Cache.Access stream", func() {
			for live := true; live; {
				live = false
				for tid := range cursors {
					if cur := &cursors[tid]; cur.Next() {
						live = true
						if cur.Cur.Kind == trace.OpAccess {
							caches[tid/cfg.CoresPerGroup].Access(cur.Cur.Addr, cur.Cur.Write)
							accesses++
						}
					}
				}
			}
		})
		l.set("cachesim.access_ns", seconds*1e9/float64(accesses))

		// The event queue alone: 1024 pending events, each rescheduling
		// itself a pseudo-random distance ahead.
		const pending, events = 1024, 1 << 21
		t := &ticker{sim: engine.NewWithCap(pending), left: events, x: w.Seed | 1}
		for i := 0; i < pending; i++ {
			t.sim.At(units.Time(i), t.tick)
		}
		l.set("engine.sched_pop_ns", 1e9*s.in("engine.Sim.Run synthetic", func() { t.sim.Run() })/float64(t.sim.Executed()))

		small := l.serveWorkload()
		nm := must(harness.Record(harness.AlgNMSort, small))
		col := must(trace.OpenBytes(must(trace.EncodeColumnar(nm.Trace))))
		replay := func(name string, src trace.Source, shards int) float64 {
			cfg := harness.NodeFor(small.Threads, 16, small.SP)
			cfg.Shards = shards
			return medianOf3(func() float64 { return s.in(name, func() { must(machine.Run(cfg, src)) }) })
		}
		mem := replay("machine.Run mem", nm.Trace, 0)
		l.set("machine.replay_v3_over_mem", replay("machine.Run v3", col, 0)/mem)
		if l.multiCPU("machine.shards_over_seq", "harness.par_speedup") {
			l.set("machine.shards_over_seq", replay("machine.Run shards", nm.Trace, -1)/mem)

			// The in-process form of the sweep-warm workload itself.
			small.Sup = &harness.Supervisor{Records: must(harness.NewDiskRecordCache(must(os.MkdirTemp(l.scratch, "probe-cache-"))))}
			must(harness.BandwidthSweep(small)) // populates the cache
			sweep := func(name string, par int) float64 {
				small.Par = par
				return medianOf3(func() float64 { return s.in(name, func() { must(harness.BandwidthSweep(small)) }) })
			}
			l.set("harness.par_speedup", sweep("harness.BandwidthSweep par 1", 1)/sweep("harness.BandwidthSweep par default", 0))
		}
	})
}

// ticker is the synthetic event of engine.sched_pop_ns: while any are left
// it reschedules itself an xorshift-drawn distance ahead.
type ticker struct {
	sim  *engine.Sim
	left int
	x    uint64
}

func (t *ticker) tick() {
	if t.left > 0 {
		t.left--
		t.x ^= t.x << 13
		t.x ^= t.x >> 7
		t.x ^= t.x << 17
		t.sim.After(units.Time(t.x%4096), t.tick)
	}
}

func medianOf3(f func() float64) float64 { return stat.Median([]float64{f(), f(), f()}) }

// serve is the ledger of the daemon's layers, through its HTTP API in
// process at serve-mix's size: each request class once cold and once
// warm, and a cold job against the same replay called directly.
func (l *ledger) serve(s *spanLog) {
	s.in("serve-mix", func() {
		w := l.serveWorkload()
		ts := httptest.NewServer(serve.New(serve.Config{Workers: runtime.NumCPU()}).Handler())
		defer ts.Close()
		c := &serve.Client{BaseURL: ts.URL, HTTP: ts.Client()}
		ctx := context.Background()
		ms := func(name string, fn func()) { l.set(name, 1e3*s.in(name, fn)) }

		rec := serve.RecordRequest{Alg: string(harness.AlgNMSort), N: w.N, Seed: w.Seed, Threads: w.Threads, SPMiB: 1}
		var info serve.TraceInfo
		ms("serve.record_cold_ms", func() { info = must(c.Record(ctx, rec)) })
		ms("serve.record_memo_ms", func() { must(c.Record(ctx, rec)) })
		var tr *trace.Trace
		ms("serve.fetch_ms", func() { tr = must(c.FetchTrace(ctx, info.Digest)) })
		var v2 bytes.Buffer
		must(tr.WriteTo(&v2))
		ms("serve.upload_v2_ms", func() {
			up := must(c.UploadTraceBytes(ctx, v2.Bytes()))
			l.check(up.Digest == info.Digest, "an uploaded trace came back under digest %s, recorded as %s", up.Digest, info.Digest)
		})

		job := serve.JobRequest{TraceDigest: info.Digest, Cores: w.Threads, NearChannels: 16, SPMiB: 1}
		ms("serve.stream_first_row_ms", func() {
			job.Stream = true
			body := must(json.Marshal(job))
			resp := must(ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body)))
			defer resp.Body.Close()
			must(bufio.NewReader(resp.Body).ReadString('\n'))
		})
		job.Stream = false

		// A cold job is a replay plus everything the daemon wraps around it.
		var cold, direct []float64
		var want machine.Result
		for i := 0; i < 3; i++ {
			direct = append(direct, s.in("machine.Run direct", func() {
				want = must(machine.Run(harness.NodeFor(w.Threads, 16, w.SP), tr))
			}))
			job.RetrySeed = uint64(i + 1)
			cold = append(cold, s.in("serve job cold", func() {
				_, got, hit, err := c.SubmitJob(ctx, job)
				check(err)
				l.check(!hit && got.Result.SimTime == want.SimTime && got.Result.Events == want.Events,
					"a cold job's result differs from the direct replay")
			}))
		}
		l.set("serve.cold_over_direct_x", stat.Median(cold)/stat.Median(direct))

		sweep := serve.SweepRequest{Exp: "bandwidth", N: w.N, Seed: w.Seed, Cores: w.Threads, SPMiB: 1, Format: "csv"}
		var first, second []byte
		var err error
		ms("serve.sweep_cold_ms", func() { first, _, err = c.Sweep(ctx, sweep); check(err) })
		ms("serve.sweep_cached_ms", func() { second, _, err = c.Sweep(ctx, sweep); check(err) })
		l.check(bytes.Equal(first, second), "a cached sweep differs from its cold run")
		l.digest.Write(first)

		st := must(c.Stats(ctx))
		l.set("serve.cache_hit_ratio", float64(st.CacheHits)/float64(st.CacheHits+st.CacheMisses))
		l.set("serve.jobs_rejected", float64(st.JobsRejected))
	})
}

// overhead prices the tracing itself and the in-process stand-in: a small
// Table I pass with spans and a CPU profile on, with
// both off, and as a real nmsim child, alternating, three times each.
func (l *ledger) overhead(s *spanLog) {
	// A quarter of serve-mix's keys: nine passes must fit in a few seconds,
	// and the share tracing adds does not depend on the size.
	w := l.serveWorkload()
	w.N /= 4
	var traced, untraced, child []float64
	for i := 0; i < 3; i++ {
		var profile bytes.Buffer
		check(pprof.StartCPUProfile(&profile))
		p := pipeline(s, w)
		pprof.StopCPUProfile()
		traced = append(traced, p.wall)
		untraced = append(untraced, pipeline(&spanLog{disabled: true}, w).wall)
		if l.nmsim != "" {
			start := time.Now()
			out := must(exec.Command(l.nmsim, "-par", "1", "-n", strconv.Itoa(w.N), "-cores", strconv.Itoa(w.Threads),
				"-sp", "1", "-seed", strconv.FormatUint(w.Seed, 10)).Output())
			child = append(child, time.Since(start).Seconds())
			if i == 0 {
				l.digest.Write(out)
				l.check(string(out) == p.text, "the in-process Table I differs from nmsim's")
			}
		}
	}
	l.set("bench.trace_overhead_pct", 100*(stat.Median(traced)/stat.Median(untraced)-1))
	if l.nmsim == "" {
		l.reasons["bench.inproc_over_child"] = "no nmsim binary was given"
		return
	}
	l.set("bench.inproc_over_child", stat.Median(untraced)/stat.Median(child))
}
