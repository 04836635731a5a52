// Command sweep regenerates the series behind the paper's Section V
// claims. Run "sweep -help" for the experiment list; every experiment is a
// row of harness.Experiments, which is also the single source of the usage
// text.
//
// Usage:
//
//	sweep -exp=bandwidth [-n keys] [-cores n] [-sp MiB] [-seed s] [-par n] [-timings]
//	sweep -exp=faults [-fault-seed s] [-fault-rates r1,r2,...]
//	sweep -exp=timeline [-epoch dur]
//	sweep -exp=bandwidth -manifest run.json [-resume] [-retries n] [-timeout dur]
//	sweep -exp=bandwidth -server http://127.0.0.1:8080 [-job-timeout dur]
//
// Every replay runs under the supervised runtime: SIGINT/SIGTERM (or
// -timeout) cancels the sweep within 2^16 executed events and the partial
// report is still written (exit code 130); with -manifest each completed
// cell is checkpointed atomically, and -resume skips checkpointed cells to
// produce a byte-identical report. A sweep that completes with failed
// cells exits 3 with the failures marked in the report.
package main

import "repro/internal/cli"

func main() { cli.Main(cli.Sweep) }
