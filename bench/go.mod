// The benchmark is a module of its own so that the root module's
// `go build ./...` never compiles it: a refactor of repro/internal may
// break the layer probes (bench/_layers) without breaking the build, and
// nmbench reports the broken probes as null instead.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
