#!/usr/bin/env bash
# serve_smoke.sh — the nmsimd daemon smoke test.
#
# Boots the daemon on an ephemeral port, requires an out-of-range sweep
# (core_list [6]) to be refused with HTTP 400, runs the golden dma sweep three
# ways — locally via cmd/sweep, remotely cold, remotely again (answered
# from the daemon's result cache) — and requires all three reports to be
# byte-identical. Then checks the cache actually hit via /v1/stats, runs the
# bandwidth sweep (whose baseline cells share one replay) through the same
# three-way identity as text and as CSV rows, then the paper's model-side
# rows (membound, codesign, m1, m2, m3, pem) the same way, then nmsim's Table
# I locally and through -server, requires /v1/stats to report no mapped trace
# bytes, and checks that SIGTERM drains the daemon to a clean exit 0.
#
# A second pass smoke-tests the columnar (v3) serving path: record a trace
# with nmtrace, convert it to .nmt3 (asserting the size win), upload the v2
# stream to one fresh daemon and the v3 file to another, submit the same
# job to both, and require byte-identical response bodies. Each file is
# uploaded twice, the v3 file a third time chunked (no Content-Length), and
# each daemon's trace is fetched back and must cmp equal to the .nmt3 file:
# a fetch serves the v3 image whichever way the trace arrived. A recording
# and a sweep run twice. Host time travels in a Server-Timing header only: an
# upload names its read and then its verify stage, or its resident stage when
# the body was the v3 image the store already held; a job its gate wait and
# replay; a recording and a sweep their gate wait and their work, a sweep then
# its recordings and cells summed by kind — with every repeat's body
# cmp-equal to the first.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
daemon_pid=""
daemon2_pid=""
cleanup() {
	[ -n "$daemon_pid" ] && kill -9 "$daemon_pid" 2>/dev/null || true
	[ -n "$daemon2_pid" ] && kill -9 "$daemon2_pid" 2>/dev/null || true
	rm -rf "$workdir"
}
trap cleanup EXIT

echo "== build =="
go build -o "$workdir/nmsimd" ./cmd/nmsimd
go build -o "$workdir/sweep" ./cmd/sweep
go build -o "$workdir/nmsim" ./cmd/nmsim
go build -o "$workdir/nmtrace" ./cmd/nmtrace

# wait_addr PID OUTFILE: echo the bound address a daemon printed on start.
wait_addr() {
	local pid="$1" out="$2" a=""
	for i in $(seq 1 100); do
		a=$(sed -n 's/^nmsimd: listening on //p' "$out")
		[ -n "$a" ] && break
		kill -0 "$pid" 2>/dev/null || { cat "$out" >&2; echo "daemon died" >&2; return 1; }
		sleep 0.1
	done
	[ -n "$a" ] || { echo "daemon never printed its address" >&2; return 1; }
	echo "$a"
}

echo "== start daemon =="
"$workdir/nmsimd" -addr 127.0.0.1:0 > "$workdir/daemon.out" &
daemon_pid=$!
addr=$(wait_addr "$daemon_pid" "$workdir/daemon.out")
echo "daemon at $addr"

# A request the CLIs would refuse is refused by the daemon too, with a 400
# and before any recording (the record counts below start from zero).
echo "== invalid sweep refused =="
code=$(curl -sS -o "$workdir/invalid.json" -w '%{http_code}' -H 'Content-Type: application/json' \
	-d '{"exp":"cores","n":8192,"cores":16,"sp_mib":1,"core_list":[6]}' "http://$addr/v1/sweeps")
cat "$workdir/invalid.json"
[ "$code" -eq 400 ] || { echo "core_list [6] got HTTP $code, want 400"; exit 1; }

args="-exp=dma -n 8192 -cores 16 -sp 1"
echo "== local sweep =="
"$workdir/sweep" $args > "$workdir/local.txt"
echo "== remote sweep (cold) =="
"$workdir/sweep" $args -server "http://$addr" > "$workdir/cold.txt"
echo "== remote sweep (cache hit) =="
"$workdir/sweep" $args -server "http://$addr" > "$workdir/warm.txt"

echo "== byte-identity =="
cmp "$workdir/local.txt" "$workdir/cold.txt"
cmp "$workdir/local.txt" "$workdir/warm.txt"

echo "== cache hit check =="
stats=$(curl -sSf "http://$addr/v1/stats")
echo "$stats"
hits=$(echo "$stats" | sed -n 's/.*"cache_hits":\([0-9]*\).*/\1/p')
[ "${hits:-0}" -gt 0 ] || { echo "result cache never hit"; exit 1; }

# The bandwidth sweep's three baseline cells are one replay and two fills
# (DESIGN.md §10, "Replay equivalence"), and handleSweep goes through the same
# pool as the local run: hold it to the same identity, as a rendered report
# and row by row, cold and from the cache — and require every cell, filled
# ones included, to be in the result cache under a key of its own (the seed
# keeps its cells apart from the dma sweep's above). The rows are CSV:
# /v1/sweeps has no NDJSON output (that is /v1/jobs' single-job stream), so
# this gate covers text and CSV only.
bw="-exp=bandwidth -n 8192 -cores 16 -sp 1 -seed 7"
field() { curl -sSf "http://$addr/v1/stats" | sed -n "s/.*\"$1\":\\([0-9]*\\).*/\\1/p"; }
entries() { field cache_entries; }
before=$(entries)
records_before=$(field records)
for fmt in text csv; do
	echo "== bandwidth sweep, $fmt: local vs remote cold vs remote cached =="
	"$workdir/sweep" $bw -format "$fmt" > "$workdir/bw_local.$fmt"
	"$workdir/sweep" $bw -format "$fmt" -server "http://$addr" > "$workdir/bw_cold.$fmt"
	"$workdir/sweep" $bw -format "$fmt" -server "http://$addr" > "$workdir/bw_warm.$fmt"
	cmp "$workdir/bw_local.$fmt" "$workdir/bw_cold.$fmt"
	cmp "$workdir/bw_local.$fmt" "$workdir/bw_warm.$fmt"
done
after=$(entries)
[ $((after - before)) -eq 6 ] || { echo "bandwidth sweep cached $((after - before)) cells, want 6"; exit 1; }

# The trace store is the daemon's record cache: the dma sweep's two
# recordings and then the bandwidth sweep's two are resident in it, as traces
# charged to -store-mb like any upload.
records=$(field records)
traces=$(field traces)
[ "$records_before" -eq 2 ] && [ $((records - records_before)) -eq 2 ] && [ "$traces" -ge 2 ] ||
	{ echo "store holds $records recordings ($records_before before the bandwidth sweep) in $traces traces; want 2, then 2 more, in >= 2 traces"; exit 1; }

# The paper's model-side numbers (C4, vendor guidance, M1-M3, M-PEM) are
# registry rows like the sweeps: hold them to the same three-way identity, as
# text and as CSV. They run after the counts above, which they would move.
for exp in membound codesign m1 m2 m3 pem; do
	row="-exp=$exp -n 4096 -cores 16 -sp 1 -seed 7"
	for fmt in text csv; do
		echo "== $exp, $fmt: local vs remote cold vs remote cached =="
		"$workdir/sweep" $row -format "$fmt" > "$workdir/${exp}_local.$fmt"
		"$workdir/sweep" $row -format "$fmt" -server "http://$addr" > "$workdir/${exp}_cold.$fmt"
		"$workdir/sweep" $row -format "$fmt" -server "http://$addr" > "$workdir/${exp}_warm.$fmt"
		cmp "$workdir/${exp}_local.$fmt" "$workdir/${exp}_cold.$fmt"
		cmp "$workdir/${exp}_local.$fmt" "$workdir/${exp}_warm.$fmt"
	done
done

# nmsim sends the same request through the same client as sweep -server.
t1="-n 8192 -cores 16 -sp 1 -seed 7"
echo "== nmsim: local vs remote =="
"$workdir/nmsim" $t1 > "$workdir/nmsim_local.txt"
"$workdir/nmsim" $t1 -server "http://$addr" > "$workdir/nmsim_remote.txt"
cmp "$workdir/nmsim_local.txt" "$workdir/nmsim_remote.txt"

# A daemon maps no trace file: uploads and recordings are held as sealed
# columns on the heap, and trace_mapped_bytes is the process's mapped total.
mapped=$(field trace_mapped_bytes)
[ "$mapped" = 0 ] || { echo "daemon maps $mapped trace bytes after its sweeps, want 0"; exit 1; }

echo "== graceful shutdown =="
kill -TERM "$daemon_pid"
rc=0; wait "$daemon_pid" || rc=$?
daemon_pid=""
[ "$rc" -eq 0 ] || { echo "daemon exited $rc on SIGTERM, want 0"; exit 1; }

echo "== record and convert (v2 -> v3) =="
"$workdir/nmtrace" record -alg nmsort -n 8192 -cores 16 -sp 1 -o "$workdir/t.nmt"
"$workdir/nmtrace" convert -i "$workdir/t.nmt" -o "$workdir/t.nmt3"
v2_bytes=$(wc -c < "$workdir/t.nmt")
v3_bytes=$(wc -c < "$workdir/t.nmt3")
echo "v2 $v2_bytes bytes, v3 $v3_bytes bytes"
[ $((v3_bytes * 5)) -le $((v2_bytes * 4)) ] || { echo "v3 is not <= 80% of v2"; exit 1; }

echo "== start v2/v3 daemon pair =="
"$workdir/nmsimd" -addr 127.0.0.1:0 > "$workdir/daemon_v2.out" &
daemon_pid=$!
addr_v2=$(wait_addr "$daemon_pid" "$workdir/daemon_v2.out")
"$workdir/nmsimd" -addr 127.0.0.1:0 > "$workdir/daemon_v3.out" &
daemon2_pid=$!
addr_v3=$(wait_addr "$daemon2_pid" "$workdir/daemon_v3.out")
echo "v2 daemon at $addr_v2, v3 daemon at $addr_v3"

echo "== upload both serializations, each twice =="
# upload FILE ADDR NAME: POST FILE, the body to NAME.json, the headers to NAME.hdr.
upload() {
	curl -sSf -D "$workdir/$3.hdr" --data-binary @"$1" "http://$2/v1/traces" > "$workdir/$3.json"
}
upload "$workdir/t.nmt" "$addr_v2" upload_v2
upload "$workdir/t.nmt" "$addr_v2" upload_v2_again
upload "$workdir/t.nmt3" "$addr_v3" upload_v3
upload "$workdir/t.nmt3" "$addr_v3" upload_v3_again
curl -sSf -D "$workdir/upload_v3_chunked.hdr" -H 'Transfer-Encoding: chunked' \
	--data-binary @"$workdir/t.nmt3" "http://$addr_v3/v1/traces" > "$workdir/upload_v3_chunked.json"
cmp "$workdir/upload_v2.json" "$workdir/upload_v2_again.json"
cmp "$workdir/upload_v3.json" "$workdir/upload_v3_again.json"
cmp "$workdir/upload_v3.json" "$workdir/upload_v3_chunked.json"
d2=$(sed -n 's/.*"digest":"\([0-9a-f]*\)".*/\1/p' "$workdir/upload_v2.json")
d3=$(sed -n 's/.*"digest":"\([0-9a-f]*\)".*/\1/p' "$workdir/upload_v3.json")
echo "v2 digest $d2, v3 digest $d3"
[ -n "$d2" ] && [ "$d2" = "$d3" ] || { echo "digest differs across serializations"; exit 1; }

echo "== fetch each upload back: the v3 image =="
curl -sSf "http://$addr_v2/v1/traces/$d2" > "$workdir/fetch_v2.nmt3"
curl -sSf "http://$addr_v3/v1/traces/$d3" > "$workdir/fetch_v3.nmt3"
cmp "$workdir/t.nmt3" "$workdir/fetch_v2.nmt3"
cmp "$workdir/t.nmt3" "$workdir/fetch_v3.nmt3"

echo "== same job against both =="
job() {
	curl -sSf -D "$3" -H 'Content-Type: application/json' \
		-d "{\"trace_digest\":\"$1\",\"cores\":16,\"near_channels\":16,\"sp_mib\":1}" \
		"http://$2/v1/jobs"
}
job "$d2" "$addr_v2" "$workdir/job_v2.hdr" > "$workdir/job_v2.json"
job "$d3" "$addr_v3" "$workdir/job_v3.hdr" > "$workdir/job_v3.json"
cmp "$workdir/job_v2.json" "$workdir/job_v3.json"
job "$d2" "$addr_v2" "$workdir/job_v2_cached.hdr" > "$workdir/job_v2_cached.json"
cmp "$workdir/job_v2.json" "$workdir/job_v2_cached.json"

echo "== a recording and a sweep, each twice =="
for i in 1 2; do
	curl -sSf -D "$workdir/record_$i.hdr" -H 'Content-Type: application/json' \
		-d '{"alg":"gnusort","n":4096,"seed":7,"threads":16,"sp_mib":1}' \
		"http://$addr_v2/v1/traces/record" > "$workdir/record_$i.json"
	curl -sSf -D "$workdir/sweep_$i.hdr" -H 'Content-Type: application/json' \
		-d '{"exp":"m2","n":4096,"cores":16,"sp_mib":1}' "http://$addr_v2/v1/sweeps" > "$workdir/sweep_$i.txt"
done
cmp "$workdir/record_1.json" "$workdir/record_2.json"
cmp "$workdir/sweep_1.txt" "$workdir/sweep_2.txt"

echo "== Server-Timing headers =="
# timing FILE PATTERN: the response headers in FILE carry a matching Server-Timing.
timing() {
	grep -iE "^Server-Timing: $2"$'\r'"?\$" "$1" ||
		{ echo "$1: no Server-Timing matching $2:"; cat "$1"; return 1; }
}
# New bytes are verified, a v3 image the store already holds is answered by
# a byte compare as it streams, a v2 body is decoded every time, and so is a
# body with no Content-Length, which no resident image is compared with.
for f in upload_v2 upload_v2_again upload_v3 upload_v3_chunked; do
	timing "$workdir/$f.hdr" 'read;dur=[0-9.]+, verify;dur=[0-9.]+'
done
timing "$workdir/upload_v3_again.hdr" 'read;dur=[0-9.]+, resident;dur=[0-9.]+'
for f in job_v2 job_v3 job_v2_cached; do
	timing "$workdir/$f.hdr" 'queue;dur=[0-9.]+, replay;dur=[0-9.]+'
done
for i in 1 2; do
	timing "$workdir/record_$i.hdr" 'queue;dur=[0-9.]+, record;dur=[0-9.]+'
	timing "$workdir/sweep_$i.hdr" 'queue;dur=[0-9.]+, sweep;dur=[0-9.]+, record;dur=[0-9.]+, cells;dur=[0-9.]+'
done

kill -TERM "$daemon_pid" && wait "$daemon_pid" || true
kill -TERM "$daemon2_pid" && wait "$daemon2_pid" || true
daemon_pid=""
daemon2_pid=""

echo "== serve smoke passed =="
