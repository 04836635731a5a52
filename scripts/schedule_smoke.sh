#!/usr/bin/env bash
# schedule_smoke.sh — the recorder-lane schedule must be invisible in the
# output (DESIGN.md §10, "The recorder lane").
#
#   1. nmsim prints the same bytes at -par 1, default -par and GOMAXPROCS=1,
#      with and without -timings (which writes to stderr only, and does
#      write there: one line per recording and per cell).
#   2. sweep -manifest leaves the same stdout and the same manifest file
#      with -timings on and off.
#   3. Cancellation is for replays, not recordings: sweep -trace-cache d
#      -timeout 1ns exits 130 having written both .nmt3 files (this is how
#      the sweep-warm benchmark fills its cache), and the warm run that
#      follows prints the uncached bytes and leaves the files untouched.
#   4. Table I is a row of the experiment registry: sweep -exp=table1 prints
#      nmsim's bytes.
#   5. A supervised run records each workload once: nmsim's telemetry replay
#      finds the NMsort trace Table I recorded, and sweep -corelist 8,8,16
#      records the 8-core pair once for its two declarations.
#   6. Table I at 2^20 keys, 256 cores, 2 MiB, cold, prints the bytes and
#      caches the two .nmt3 files whose SHA-256 testdata/rows.golden holds
#      (its large/ entries; TestRows checks the rest of the file). On a
#      mismatch it prints what it wrote in that file's format, so a
#      deliberate key or trace change is pasted, not typed. Its -timings
#      peak RSS is printed beside the check, never gated: hosts differ.
set -euo pipefail

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

echo "== build =="
go build -o "$workdir/nmsim" ./cmd/nmsim
go build -o "$workdir/sweep" ./cmd/sweep

echo "== nmsim: -par / GOMAXPROCS / -timings byte-identity =="
t1="-n 65536 -cores 64 -sp 1"
"$workdir/nmsim" $t1 -par 1 > "$workdir/par1.txt"
"$workdir/nmsim" $t1 > "$workdir/pardef.txt"
GOMAXPROCS=1 "$workdir/nmsim" $t1 > "$workdir/procs1.txt"
"$workdir/nmsim" $t1 -par 1 -timings > "$workdir/par1.timed.txt" 2> "$workdir/par1.timings"
"$workdir/nmsim" $t1 -timings > "$workdir/pardef.timed.txt" 2> "$workdir/pardef.timings"
GOMAXPROCS=1 "$workdir/nmsim" $t1 -timings > "$workdir/procs1.timed.txt" 2> "$workdir/procs1.timings"
for f in pardef procs1 par1.timed pardef.timed procs1.timed; do
	cmp "$workdir/par1.txt" "$workdir/$f.txt"
done
for f in par1 pardef procs1; do
	[ "$(grep -c '^timings: record ' "$workdir/$f.timings")" -eq 2 ] || { cat "$workdir/$f.timings"; echo "$f: want 2 recordings on stderr"; exit 1; }
	[ "$(grep -c '^timings: cell ' "$workdir/$f.timings")" -eq 4 ] || { cat "$workdir/$f.timings"; echo "$f: want 4 cells on stderr"; exit 1; }
done
cat "$workdir/par1.timings"

echo "== sweep: -timings leaves stdout and the manifest alone =="
bw="-exp=bandwidth -n 65536 -cores 64 -sp 1"
"$workdir/sweep" $bw -manifest "$workdir/plain.json" > "$workdir/plain.txt"
"$workdir/sweep" $bw -manifest "$workdir/timed.json" -timings > "$workdir/timed.txt" 2> "$workdir/sweep.timings"
cmp "$workdir/plain.txt" "$workdir/timed.txt"
cmp "$workdir/plain.json" "$workdir/timed.json"
[ "$(grep -c 'shared' "$workdir/sweep.timings")" -eq 2 ] || { cat "$workdir/sweep.timings"; echo "want two shared cells"; exit 1; }

echo "== sweep: an expired -timeout still fills the trace cache =="
rc=0
"$workdir/sweep" $bw -trace-cache "$workdir/cache" -timeout 1ns > "$workdir/expired.txt" 2> /dev/null || rc=$?
[ "$rc" -eq 130 ] || { echo "expired sweep exited $rc, want 130"; exit 1; }
[ "$(ls "$workdir/cache"/*.nmt3 | wc -l)" -eq 2 ] || { ls -l "$workdir/cache"; echo "want two .nmt3 files"; exit 1; }
before=$(cd "$workdir/cache" && ls -l --time-style=full-iso ./*.nmt3 && sha256sum ./*.nmt3)
"$workdir/sweep" $bw -trace-cache "$workdir/cache" > "$workdir/warm.txt"
cmp "$workdir/plain.txt" "$workdir/warm.txt"
after=$(cd "$workdir/cache" && ls -l --time-style=full-iso ./*.nmt3 && sha256sum ./*.nmt3)
[ "$before" = "$after" ] || { echo "the warm run touched the cache:"; echo "$before"; echo "$after"; exit 1; }

echo "== sweep -exp=table1 is nmsim =="
"$workdir/sweep" -exp=table1 $t1 | cmp "$workdir/par1.txt" -

echo "== a supervised run records each workload once =="
"$workdir/nmsim" -n 8192 -cores 8 -sp 1 -telemetry-out "$workdir/t.trace.json" -telemetry-csv "$workdir/t.csv" \
	-timings > /dev/null 2> "$workdir/tel.timings"
[ "$(grep -c '^timings: record ' "$workdir/tel.timings")" -eq 3 ] &&
	[ "$(grep '^timings: record ' "$workdir/tel.timings" | grep -c '\[cached\]')" -eq 1 ] ||
	{ cat "$workdir/tel.timings"; echo "nmsim -telemetry-out: want 3 recordings, 1 cached"; exit 1; }
"$workdir/sweep" -exp=cores -corelist 8,8,16 -n 8192 -sp 1 -timings > /dev/null 2> "$workdir/cores.timings"
[ "$(grep -c '^timings: record ' "$workdir/cores.timings")" -eq 6 ] &&
	[ "$(grep '^timings: record ' "$workdir/cores.timings" | grep -c '\[cached\]')" -eq 2 ] ||
	{ cat "$workdir/cores.timings"; echo "sweep -corelist 8,8,16: want 6 recordings, 2 cached"; exit 1; }

echo "== Table I at 2^20: the large/ entries of testdata/rows.golden =="
mkdir "$workdir/large"
"$workdir/nmsim" -n 1048576 -cores 256 -sp 2 -seed 2015 -trace-cache "$workdir/large" -timings \
	> "$workdir/large/table1.txt" 2> "$workdir/large.timings"
grep '  large/' testdata/rows.golden | (cd "$workdir" && sha256sum -c -) || {
	echo "the large/ files this run wrote, as testdata/rows.golden lines:"
	(cd "$workdir" && sha256sum large/table1.txt large/*.nmt3)
	exit 1
}
grep '^timings: peak rss ' "$workdir/large.timings" || echo "(no peak RSS on this platform)"

echo "== schedule smoke passed =="
