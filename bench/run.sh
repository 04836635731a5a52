#!/usr/bin/env bash
# run.sh — the BENCHMARK.json entry point: builds nmbench and runs it with
# every byte the go tool writes (build cache, temp files, module cache, and
# the telemetry counters it keeps under the user's config directory) kept
# inside the checkout's .bench_build/, so a run reads and writes nothing
# outside the checkout. Arguments pass through to nmbench.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE=$build/gocache GOMODCACHE=$build/modcache GOTMPDIR=$build/tmp
export GOPROXY=off GOTOOLCHAIN=local XDG_CONFIG_HOME=$build/config
go build -C "$root/bench" -o "$build/bin/nmbench" ./cmd/nmbench
cd "$root"
exec "$build/bin/nmbench" "$@"
