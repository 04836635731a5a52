// Package serve turns the deterministic replay kernel into a service: a
// content-addressed trace store (record or upload once, share one
// immutable trace across every concurrent replay and every sweep that
// records the same workload), a result cache
// keyed by the supervisor's CellKey (identical (trace, config) jobs are
// answered without re-simulation, byte for byte), a bounded admission
// gate in front of the supervised worker pool (429 on overload), and
// NDJSON progress/telemetry streaming for long jobs.
//
// The determinism argument is the same one every sweep relies on, lifted
// to the serving layer: traces are immutable after recording, replays are
// pure functions of (trace, config), and cell keys content-address both —
// so a cache hit returns the same bytes a fresh replay would produce, at
// any concurrency, in any arrival order. The package is registered with
// nmlint's simulator-package analyzers: no wall-clock reads and no
// map-iteration-order dependence anywhere in the serving path.
package serve
