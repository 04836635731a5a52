// Command nmsim reproduces the paper's Table I: it records the GNU-sort
// baseline and NMsort on a scaled workload, replays the traces through the
// simulated two-level-memory node at 2X/4X/8X near-memory bandwidth, and
// prints the sim time and per-level access counts. With -fault-rate > 0
// the replays run under the deterministic fault environment of
// internal/fault (ECC corrections and retries in the far memory, degraded
// near channels, NoC retransmissions); rows whose replay returned
// uncorrected data are marked "!".
//
// With -telemetry-out (Chrome trace-event JSON, loadable in Perfetto)
// and/or -telemetry-csv (time-series dump), nmsim additionally replays the
// NMsort trace on the 4X node with a telemetry recorder sampling every
// -telemetry-epoch of simulated time, writes the export files, and appends
// the per-phase bandwidth breakdown. Telemetry output is bit-identical
// across runs: same flags, same bytes.
//
// Usage:
//
//	nmsim [-n keys] [-cores n] [-sp MiB] [-seed s] [-dma]
//	      [-fault-seed s] [-fault-rate r] [-par n] [-timings]
//	      [-telemetry-out f.trace.json] [-telemetry-csv f.csv] [-telemetry-epoch dur]
//	nmsim -server http://127.0.0.1:8080 [-job-timeout dur]
package main

import "repro/internal/cli"

func main() { cli.Main(cli.NMSim) }
