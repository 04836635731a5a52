#!/usr/bin/env bash
# mutants.sh — the replay kernel's allocation mutant matrix (DESIGN §9).
#
# Each testdata/mutants/alloc/*.patch adds one allocating construct to the
# replay kernel: on the steady path of a plain replay (Sim.At, core.run,
# Cursor.Next) or on a branch a plain replay never takes (the OpDMA branch,
# an Injector fault path, Recorder.Sample). The script applies each patch,
# one at a time, to a copy of the working tree and runs what guards the
# allocation discipline:
#
#   nmlint   the lint suite (simpure is the analyzer that can fire here)
#   pins     go test -run '^TestReplayAllocs$' . (the exact malloc count of
#            one replay per mode, testdata/replay_allocs.golden)
#
# and compares what killed each mutant with testdata/mutants/alloc/LEDGER.
# The ledger's hotpath and escape-check columns record the two static
# passes this matrix retired; they are carried, not re-run. The script
# fails when a patch does not apply or does not build, when a mutant
# survives both mechanisms, or when the measured columns or the patch list
# differ from the ledger; it then writes what it saw to LEDGER.new (mv it
# over LEDGER to accept a deliberate change).
#
# Usage: scripts/mutants.sh   (~3 min on 2 CPUs; run from anywhere inside
# the repository)
set -euo pipefail

cd "$(dirname "$0")/.."
dir=testdata/mutants/alloc
ledger=$dir/LEDGER

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git ls-files -z --cached --others --exclude-standard |
	while IFS= read -r -d '' f; do if [ -e "$f" ]; then printf '%s\0' "$f"; fi; done |
	xargs -0 cp --parents -t "$tmp/"
go build -o "$tmp/.nmlint" ./cmd/nmlint

mechanisms() { # prints "<nmlint analyzers or -> <pins x or ->" for the copy
	local lint pins=-
	lint=$(cd "$tmp" && ./.nmlint . 2>&1 | sed -n 's/^[^ ]*: \[\([a-z-]*\)\] .*/\1/p' | sort -u | paste -sd, -) || true
	if ! (cd "$tmp" && go test -count=1 -run '^TestReplayAllocs$' . >"$tmp/.test" 2>&1); then
		if grep -q 'build failed\|setup failed' "$tmp/.test"; then
			cat "$tmp/.test" >&2
			return 1
		fi
		pins=x
	fi
	echo "${lint:--} $pins"
}

if [ "$(mechanisms)" != "- -" ]; then
	echo "mutants.sh: the unmutated tree is not clean under nmlint and the pins" >&2
	exit 1
fi

start=$(date +%s)
fail=0
{
	grep '^#' "$ledger"
	for p in "$dir"/*.patch; do
		name=$(basename "$p")
		if ! (cd "$tmp" && git apply "$OLDPWD/$p"); then
			echo "mutants.sh: $name does not apply" >&2
			fail=1
			continue
		fi
		if ! read -r lint pins < <(mechanisms); then
			echo "mutants.sh: $name does not build" >&2
			fail=1
		elif [ "$lint" = - ] && [ "$pins" = - ]; then
			echo "mutants.sh: $name survives nmlint and the pins" >&2
			fail=1
		fi
		(cd "$tmp" && git apply -R "$OLDPWD/$p")
		# class, site, hotpath and escape-check come from the ledger.
		old=$(awk -F'\t' -v n="$name" '$1 == n { print $2 "\t" $3 "\t" $4 "\t" $5 }' "$ledger")
		printf '%s\t%s\t%s\t%s\n' "$name" "${old:-?	?	?	?}" "$lint" "$pins"
	done
} >"$tmp/LEDGER"

if ! diff -u "$ledger" "$tmp/LEDGER"; then
	cp "$tmp/LEDGER" "$ledger.new"
	echo "mutants.sh: the matrix differs from $ledger; wrote $ledger.new" >&2
	fail=1
fi
n=$(ls "$dir"/*.patch | wc -l)
echo "mutants.sh: $n mutants in $(($(date +%s) - start)) s"
exit $fail
