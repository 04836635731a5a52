#!/usr/bin/env bash
# bench.sh — replay- and sweep-throughput benchmark harness.
#
# Runs two benchmark families and maintains two committed performance
# trajectories next to the repo root:
#
#   BenchmarkReplay*      (root)             -> BENCH_replay.json
#       baseline replay, telemetry idle, and telemetry actively sampling;
#       the per-event cost of the simulation kernel itself.
#   BenchmarkSweepTable1* (internal/harness) -> BENCH_sweep.json
#       the Table I replay batch through the sweep worker pool at one
#       worker and at GOMAXPROCS; the wall-clock win of -par.
#   BenchmarkTraceOpen*   (internal/trace)   -> BENCH_replay.json
#       time-to-ready for a trace file in each serialization: v2 reads
#       and decodes the whole stream, v3 maps the file and checks its
#       footer. Each point also reports the on-disk file size.
#   BenchmarkRecordTable1* (root)            -> BENCH_replay.json
#       the two Table I sorts recorded at the reference CLI size: host ns
#       and allocated bytes per recorded op (the native sort included).
#
# Each trajectory is a JSON array with one flat object per run (one line
# per entry, so awk/grep can read it without a JSON parser). A run appends
# its entry; commit the updated files to extend the recorded history.
#
# Gates (non-zero exit):
#   - idle-telemetry overhead vs. the bare replay >= MAX_OVERHEAD_PCT (5%):
#     the median, over PAIRS (6) adjacent runs of one test binary, of each
#     pair's idle/baseline ns/op ratio. Pairing cancels the host's drift
#     between runs, which the fastest of independent runs does not
#   - columnar open speedup below MIN_OPEN_SPEEDUP (5x) or columnar file
#     size above MAX_SIZE_RATIO (0.8) of the v2 stream — both are
#     host-independent properties of the serialization itself. Opening a
#     v2 file is reading it whole and sealing it into columns (decode,
#     validate and put in one pass); opening a v3 file maps it and checks
#     its footer, so the ratio is O(ops) over O(1) by construction
#   - recorder allocation above MAX_RECORD_BYTES_PER_OP (16) bytes per
#     recorded op, ops-weighted over both sorts — the definition of the
#     benchmark ledger's trace.record_alloc_bytes_per_op, which read 127.7
#     when recordings were 32-byte op slices grown by doubling. Allocation
#     counts are a property of the code, not of the host
# Baseline ns/trace-op (replay wall time over the ops of the replayed trace)
# and ns/event are report-only, recorded in every entry: one run on this host
# against an entry committed from another measures the hosts, not the code.
# The Par1/ParMax sweep ratio is report-only too: it depends on host core
# count, which is not a property of the code under test. Each entry records
# gomaxprocs and the host cpu count so a 1.0x "speedup" measured on a
# single-proc run is legible as such; GOMAXPROCS=1 also prints a warning
# that the ParMax point degenerates.
#
# Usage:  scripts/bench.sh [benchtime]     (default 10x)
#         BENCH_LABEL=pr5 scripts/bench.sh 20x
set -euo pipefail

cd "$(dirname "$0")/.."

BENCHTIME="${1:-10x}"
MAX_OVERHEAD_PCT="${MAX_OVERHEAD_PCT:-5}"
PAIRS=6
MIN_OPEN_SPEEDUP="${MIN_OPEN_SPEEDUP:-5}"
MAX_SIZE_RATIO="${MAX_SIZE_RATIO:-0.8}"
MAX_RECORD_BYTES_PER_OP="${MAX_RECORD_BYTES_PER_OP:-16}"
LABEL="${BENCH_LABEL:-local}"
STAMP="$(date -u +%Y-%m-%d)"
CPUS="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)"
REPLAY_OUT="BENCH_replay.json"
SWEEP_OUT="BENCH_sweep.json"
RAW_REPLAY="$(mktemp)"
RAW_SWEEP="$(mktemp)"
RAW_OPEN="$(mktemp)"
RAW_RECORD="$(mktemp)"
REPLAY_BIN="$(mktemp)"
trap 'rm -f "$RAW_REPLAY" "$RAW_SWEEP" "$RAW_OPEN" "$RAW_RECORD" "$REPLAY_BIN"' EXIT

# The replay family runs from one test binary: the baseline and the idle
# replay alternate PAIRS times, so each idle run is compared with the
# baseline run next to it, then the active replay runs once. Every other
# pair runs idle first: the second run of a pair reads a few percent slower
# on a shared host, and the swap cancels that in the median.
go test -c -o "$REPLAY_BIN" .
echo "== BenchmarkReplayBaseline / BenchmarkReplayTelemetryIdle x $PAIRS pairs, then BenchmarkReplayTelemetryActive, -benchtime $BENCHTIME =="
for ((i = 0; i < PAIRS; i++)); do
	order="Baseline TelemetryIdle"
	if ((i % 2)); then order="TelemetryIdle Baseline"; fi
	for b in $order; do
		"$REPLAY_BIN" -test.run '^$' -test.bench "^BenchmarkReplay$b\$" -test.benchtime "$BENCHTIME" -test.benchmem | grep '^Benchmark'
	done
done | tee "$RAW_REPLAY"
"$REPLAY_BIN" -test.run '^$' -test.bench '^BenchmarkReplayTelemetryActive$' -test.benchtime "$BENCHTIME" -test.benchmem | grep '^Benchmark' | tee -a "$RAW_REPLAY"

echo "== go test -bench BenchmarkSweepTable1 -benchtime $BENCHTIME ./internal/harness =="
go test -run '^$' -bench '^BenchmarkSweepTable1' -benchtime "$BENCHTIME" ./internal/harness | tee "$RAW_SWEEP"

echo "== go test -bench BenchmarkTraceOpen -benchtime $BENCHTIME ./internal/trace =="
go test -run '^$' -bench '^BenchmarkTraceOpen' -benchtime "$BENCHTIME" ./internal/trace | tee "$RAW_OPEN"

# One iteration records 5-9 M ops in about half a second, and the gated
# figure is an allocation count: three iterations are plenty.
echo "== go test -bench BenchmarkRecordTable1 -benchtime 3x =="
go test -run '^$' -bench '^BenchmarkRecordTable1' -benchtime 3x . | tee "$RAW_RECORD"

# append FILE ENTRY: append one entry line to a JSON-array trajectory,
# creating the file when absent. Entries are one line each; the closing
# bracket is always the last line.
append() {
	local file="$1" entry="$2"
	if [ ! -s "$file" ]; then
		printf '[\n  %s\n]\n' "$entry" >"$file"
		return
	fi
	local tmp
	tmp="$(mktemp)"
	sed '$d' "$file" | sed '$ s/$/,/' >"$tmp"
	printf '  %s\n]\n' "$entry" >>"$tmp"
	mv "$tmp" "$file"
}

# --- parse the replay family ---------------------------------------------
# "BenchmarkReplayX-N  iters  T ns/op  ...  V ns/event ...  W ns/trace-op ...  A allocs/op"
# Each baseline field is the median over its runs; OVERHEAD_PCT is the
# median of the per-pair idle/baseline ns/op ratios, less one, in percent.
read -r BASE_NSOP BASE_NSEV BASE_NSTOP BASE_EPS BASE_ALLOCS IDLE_NSOP IDLE_NSEV ACTIVE_NSEV OVERHEAD_PCT REPLAY_PROCS < <(awk '
function median(a, n,    i, j, t) {
	for (i = 1; i < n; i++)
		for (j = i + 1; j <= n; j++)
			if (a[j] + 0 < a[i] + 0) { t = a[i]; a[i] = a[j]; a[j] = t }
	return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
}
/^BenchmarkReplay/ {
	name = $1
	if (match(name, /-[0-9]+$/)) procs = substr(name, RSTART + 1)
	sub(/-[0-9]+$/, "", name)
	k = ++runs[name]
	for (i = 2; i < NF; i++) {
		if ($(i+1) == "ns/op")       nsop[name, k] = $i
		if ($(i+1) == "ns/event")    nsev[name, k] = $i
		if ($(i+1) == "ns/trace-op") nstop[name, k] = $i
		if ($(i+1) == "events/sec")  eps[name, k] = $i
		if ($(i+1) == "allocs/op")   allocs[name, k] = $i
	}
}
function med(field, name,    a, k) {
	for (k = 1; k <= runs[name]; k++) a[k] = field[name, k]
	return median(a, runs[name])
}
END {
	b = "BenchmarkReplayBaseline"; i = "BenchmarkReplayTelemetryIdle"; a = "BenchmarkReplayTelemetryActive"
	if (!runs[b] || runs[b] != runs[i]) { print "bench.sh: no paired baseline and idle results" > "/dev/stderr"; exit 1 }
	for (k = 1; k <= runs[b]; k++) r[k] = nsop[i, k] / nsop[b, k]
	print med(nsop, b), med(nsev, b), med(nstop, b), med(eps, b), med(allocs, b), med(nsop, i), med(nsev, i), med(nsev, a), (median(r, runs[b]) - 1) * 100, procs+0
}' "$RAW_REPLAY")

# --- parse the sweep family ----------------------------------------------
read -r PAR1_NSOP PARMAX_NSOP GOMAXPROCS < <(awk '
/^BenchmarkSweepTable1/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	nsop[name] = $3
	for (i = 2; i < NF; i++) if ($(i+1) == "gomaxprocs") procs = $i
}
END {
	p1 = "BenchmarkSweepTable1Par1"; pm = "BenchmarkSweepTable1ParMax"
	if (!(p1 in nsop) || !(pm in nsop)) { print "bench.sh: missing sweep results" > "/dev/stderr"; exit 1 }
	print nsop[p1], nsop[pm], procs+0
}' "$RAW_SWEEP")

# --- parse the trace-open family ------------------------------------------
read -r OPEN_V2_NSOP OPEN_V3_NSOP V2_BYTES V3_BYTES < <(awk '
/^BenchmarkTraceOpen/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	for (i = 2; i < NF; i++) {
		if ($(i+1) == "ns/op")      nsop[name] = $i
		if ($(i+1) == "file-bytes") bytes[name] = $i
	}
}
END {
	v2 = "BenchmarkTraceOpenV2"; v3 = "BenchmarkTraceOpenV3"
	if (!(v2 in nsop) || !(v3 in nsop)) { print "bench.sh: missing trace-open results" > "/dev/stderr"; exit 1 }
	print nsop[v2], nsop[v3], bytes[v2], bytes[v3]
}' "$RAW_OPEN")

# --- parse the record family -----------------------------------------------
read -r REC_GNU_NS REC_GNU_B REC_NM_NS REC_NM_B REC_B < <(awk '
/^BenchmarkRecordTable1/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	for (i = 2; i < NF; i++) {
		if ($(i+1) == "ns/recorded-op") ns[name] = $i
		if ($(i+1) == "B/recorded-op")  bytes[name] = $i
		if ($(i+1) == "recorded-ops")   ops[name] = $i
	}
}
END {
	g = "BenchmarkRecordTable1GNUSort"; n = "BenchmarkRecordTable1NMSort"
	if (!(g in bytes) || !(n in bytes) || ops[g] + ops[n] == 0) { print "bench.sh: missing record results" > "/dev/stderr"; exit 1 }
	printf "%s %s %s %s %.2f\n", ns[g], bytes[g], ns[n], bytes[n], (bytes[g] * ops[g] + bytes[n] * ops[n]) / (ops[g] + ops[n])
}' "$RAW_RECORD")

# --- gate 1: idle-telemetry overhead --------------------------------------
awk -v max="$MAX_OVERHEAD_PCT" -v pct="$OVERHEAD_PCT" -v pairs="$PAIRS" 'BEGIN {
	printf "== idle-telemetry overhead: %.2f%%, median of %d paired runs (budget %s%%) ==\n", pct, pairs, max
	if (pct >= max) { print "bench.sh: idle telemetry overhead exceeds budget" > "/dev/stderr"; exit 1 }
}'

# --- report-only: baseline replay cost ------------------------------------
echo "== baseline ns/trace-op: $BASE_NSTOP, ns/event: $BASE_NSEV (report-only) =="

# --- gate 2: columnar open speedup and file size --------------------------
awk -v minsp="$MIN_OPEN_SPEEDUP" -v maxratio="$MAX_SIZE_RATIO" \
	-v v2="$OPEN_V2_NSOP" -v v3="$OPEN_V3_NSOP" -v b2="$V2_BYTES" -v b3="$V3_BYTES" 'BEGIN {
	if (v3+0 == 0 || b2+0 == 0) { print "bench.sh: missing trace-open numbers" > "/dev/stderr"; exit 1 }
	sp = v2 / v3; ratio = b3 / b2
	printf "== trace open: v2 read + seal %.0f ns/op (%.0f bytes), v3 map %.0f ns/op (%.0f bytes): %.1fx faster, %.3fx the size (fail under %sx / over %s) ==\n", \
		v2, b2, v3, b3, sp, ratio, minsp, maxratio
	if (sp < minsp) { print "bench.sh: columnar open speedup below budget" > "/dev/stderr"; exit 1 }
	if (ratio > maxratio) { print "bench.sh: columnar file size above budget" > "/dev/stderr"; exit 1 }
}'

# --- gate 3: recorder allocation per recorded op ---------------------------
awk -v max="$MAX_RECORD_BYTES_PER_OP" -v b="$REC_B" -v gb="$REC_GNU_B" -v nb="$REC_NM_B" -v gn="$REC_GNU_NS" -v nn="$REC_NM_NS" 'BEGIN {
	printf "== record: gnusort %.1f ns / %.2f B, nmsort %.1f ns / %.2f B per recorded op; %.2f B/recorded-op over both (fail over %s) ==\n", \
		gn, gb, nn, nb, b, max
	if (b > max) { print "bench.sh: recorder allocation per op above budget" > "/dev/stderr"; exit 1 }
}'

# --- report-only: sweep pool speedup --------------------------------------
awk -v p1="$PAR1_NSOP" -v pm="$PARMAX_NSOP" -v procs="$GOMAXPROCS" 'BEGIN {
	printf "== sweep pool: par1 %.0f ns/op, parmax %.0f ns/op, speedup %.2fx at GOMAXPROCS=%d (report-only) ==\n", \
		p1, pm, p1 / pm, procs
}'
if [ "$GOMAXPROCS" -le 1 ]; then
	echo "== warning: GOMAXPROCS=1 — the ParMax point degenerates to Par1 and the recorded speedup is meaningless; rerun with GOMAXPROCS>1 for a real multi-proc entry =="
fi

# --- extend both trajectories ---------------------------------------------
append "$REPLAY_OUT" "$(printf '{"label": "%s", "date": "%s", "benchtime": "%s", "baseline_ns_per_trace_op": %s, "baseline_ns_per_event": %s, "baseline_events_per_sec": %s, "baseline_allocs_per_op": %s, "idle_ns_per_event": %s, "active_ns_per_event": %s, "open_v2_ns_per_op": %s, "open_v3_ns_per_op": %s, "open_speedup": %s, "v2_file_bytes": %s, "v3_file_bytes": %s, "record_gnusort_ns_per_op": %s, "record_nmsort_ns_per_op": %s, "record_gnusort_bytes_per_op": %s, "record_nmsort_bytes_per_op": %s, "record_bytes_per_op": %s, "gomaxprocs": %s, "cpus": %s}' \
	"$LABEL" "$STAMP" "$BENCHTIME" "$BASE_NSTOP" "$BASE_NSEV" "$BASE_EPS" "$BASE_ALLOCS" "${IDLE_NSEV:-0}" "${ACTIVE_NSEV:-0}" \
	"$OPEN_V2_NSOP" "$OPEN_V3_NSOP" \
	"$(awk -v v2="$OPEN_V2_NSOP" -v v3="$OPEN_V3_NSOP" 'BEGIN { printf "%.1f", v2 / v3 }')" \
	"$V2_BYTES" "$V3_BYTES" \
	"$REC_GNU_NS" "$REC_NM_NS" "$REC_GNU_B" "$REC_NM_B" "$REC_B" \
	"$REPLAY_PROCS" "$CPUS")"
append "$SWEEP_OUT" "$(printf '{"label": "%s", "date": "%s", "benchtime": "%s", "gomaxprocs": %s, "cpus": %s, "par1_ns_per_op": %s, "parmax_ns_per_op": %s, "speedup": %s}' \
	"$LABEL" "$STAMP" "$BENCHTIME" "$GOMAXPROCS" "$CPUS" "$PAR1_NSOP" "$PARMAX_NSOP" \
	"$(awk -v p1="$PAR1_NSOP" -v pm="$PARMAX_NSOP" 'BEGIN { printf "%.3f", p1 / pm }')")"

echo "== wrote $REPLAY_OUT =="
cat "$REPLAY_OUT"
echo "== wrote $SWEEP_OUT =="
cat "$SWEEP_OUT"
