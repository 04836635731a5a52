package repro_test

// Replay-throughput benchmarks backing the telemetry overhead budget: the
// probe layer must cost nothing measurable when no Recorder is attached
// (scripts/bench.sh enforces idle overhead < 5% against the baseline here)
// and stay cheap when sampling is live. Each variant replays the same
// recorded trace, so the host-time deltas isolate the telemetry hooks.

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// benchReplay replays a pre-recorded NMsort trace once per iteration,
// building the machine config via mkcfg so variants can attach telemetry.
// It reports ns/trace-op — host time per replayed trace op, the unit
// scripts/bench.sh gates on: the work a replay is asked to do, which no
// kernel change can redefine — plus events/sec and ns/event, which move
// whenever the kernel elides more or fewer events for the same ops.
func benchReplay(b *testing.B, mkcfg func(w harness.Workload) machine.Config) {
	w := benchWorkload()
	rec, err := harness.Record(harness.AlgNMSort, w)
	if err != nil {
		b.Fatal(err)
	}
	var res machine.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = machine.Run(mkcfg(w), rec.Trace)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perIter := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(perIter*1e9/float64(rec.Trace.Ops()), "ns/trace-op")
	if res.Events > 0 {
		b.ReportMetric(float64(res.Events)/perIter, "events/sec")
		b.ReportMetric(perIter*1e9/float64(res.Events), "ns/event")
	}
	reportSim(b, res)
}

// BenchmarkReplayBaseline is the reference: no telemetry Recorder, so the
// only cost the probe layer may add is one nil check per event.
func BenchmarkReplayBaseline(b *testing.B) {
	benchReplay(b, func(w harness.Workload) machine.Config {
		return harness.NodeFor(w.Threads, 16, w.SP)
	})
}

// BenchmarkReplayTelemetryIdle attaches a Recorder whose epoch exceeds any
// plausible simulated runtime: every hook is wired but almost no samples
// fire. This is the "<5% overhead" acceptance bound.
func BenchmarkReplayTelemetryIdle(b *testing.B) {
	benchReplay(b, func(w harness.Workload) machine.Config {
		cfg := harness.NodeFor(w.Threads, 16, w.SP)
		cfg.Telemetry = telemetry.New(units.Time(1) << 60)
		return cfg
	})
}

// BenchmarkReplayTelemetryActive samples every 10µs of simulated time —
// the default nmsim -telemetry-epoch — to price live time-series capture.
func BenchmarkReplayTelemetryActive(b *testing.B) {
	benchReplay(b, func(w harness.Workload) machine.Config {
		cfg := harness.NodeFor(w.Threads, 16, w.SP)
		cfg.Telemetry = telemetry.New(10 * units.Microsecond)
		return cfg
	})
}
