#!/usr/bin/env bash
# mutants.sh — the committed mutant matrix (DESIGN §9, ROADMAP item 14).
#
# Each directory testdata/mutants/<set>/ holds small patches against non-test
# code and a LEDGER recording what kills each one. The ledger's header names
# what the set runs:
#
#   # packages: ./internal/trace       the go test packages (required)
#   # run: ^TestReplayAllocs$          a -run pattern (optional)
#   # patch	<carried…>	nmlint	tests    the column names
#
# The script applies each patch, one at a time, to a copy of the working tree
# and records, for the mutated copy:
#
#   nmlint   the lint suite's analyzers that report it
#   tests    the top-level tests of the named packages that fail, read from
#            go test -json
#
# The columns between patch and nmlint are carried from the ledger (a
# description, or a mechanism measured once and retired), not re-run. The
# script fails when a patch does not apply or does not build, when a mutant
# survives both nmlint and the tests, or when the measured columns or the
# patch list differ from the ledger; it then writes what it saw to
# <set>/LEDGER.new (mv it over LEDGER to accept a deliberate change).
#
# The sets today: alloc (54 allocating constructs in the replay kernel,
# against the exact malloc pins of TestReplayAllocs, ~3 min on 2 CPUs) and
# trace (behavioural mutants of internal/trace, one per contract its tests
# claim, against the whole package's tests, ~5 min on 2 CPUs).
#
# Usage: scripts/mutants.sh [-apply-only] [set ...]
#   With no set, every set. -apply-only runs no test: it checks that every
#   patch still applies (git apply --check) and that the ledger lists exactly
#   the set's patches.
# Run from anywhere inside the repository.
set -euo pipefail

cd "$(dirname "$0")/.."

apply_only=0
if [ "${1:-}" = -apply-only ]; then
	apply_only=1
	shift
fi
sets=("$@")
if [ ${#sets[@]} -eq 0 ]; then
	for d in testdata/mutants/*/; do
		sets+=("$(basename "$d")")
	done
fi

# patches lists a set's patch names; listed the names its ledger gives.
patches() { (cd "testdata/mutants/$1" && ls -- *.patch); }
listed() { grep -v '^#' "testdata/mutants/$1/LEDGER" | cut -f1; }

if [ $apply_only = 1 ]; then
	fail=0
	for set in "${sets[@]}"; do
		dir=testdata/mutants/$set
		for p in $(patches "$set"); do
			if ! git apply --check "$dir/$p"; then
				echo "mutants.sh: $set/$p does not apply" >&2
				fail=1
			fi
		done
		if ! diff -u <(listed "$set") <(patches "$set"); then
			echo "mutants.sh: $dir/LEDGER does not list exactly the set's patches" >&2
			fail=1
		fi
		echo "mutants.sh: $set: $(patches "$set" | wc -l) patches apply (tests not run)"
	done
	exit $fail
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git ls-files -z --cached --others --exclude-standard |
	while IFS= read -r -d '' f; do if [ -e "$f" ]; then printf '%s\0' "$f"; fi; done |
	xargs -0 cp --parents -t "$tmp/"
go build -o "$tmp/.nmlint" ./cmd/nmlint

# mechanisms prints "<nmlint analyzers or -> <failing tests or ->" for the
# copy as it stands, running the tests of packages (under run, if set).
mechanisms() {
	local lint tests
	lint=$(cd "$tmp" && ./.nmlint . 2>&1 | sed -n 's/^[^ ]*: \[\([a-z-]*\)\] .*/\1/p' | sort -u | paste -sd, -) || true
	if (cd "$tmp" && go test -json -count=1 ${run:+-run "$run"} $packages >"$tmp/.test" 2>&1); then
		echo "${lint:--} -"
		return
	fi
	tests=$(sed -n 's/.*"Action":"fail","Package":"[^"]*","Test":"\([^"/]*\)".*/\1/p' "$tmp/.test" | sort -u | paste -sd, -)
	if [ -z "$tests" ]; then # the package failed, but no test did: a build or setup failure
		tail -20 "$tmp/.test" >&2
		return 1
	fi
	echo "${lint:--} $tests"
}

fail=0
for set in "${sets[@]}"; do
	dir=testdata/mutants/$set
	ledger=$dir/LEDGER
	packages=$(sed -n 's/^# packages: //p' "$ledger")
	run=$(sed -n 's/^# run: //p' "$ledger")
	if [ -z "$packages" ]; then
		echo "mutants.sh: $ledger names no packages" >&2
		exit 1
	fi
	# The carried columns sit between the patch name and the two measured ones.
	carried=$(($(grep '^# patch	' "$ledger" | awk -F'\t' '{ print NF }') - 3))

	if [ "$(mechanisms)" != "- -" ]; then
		echo "mutants.sh: the unmutated tree is not clean under nmlint and $set's tests" >&2
		exit 1
	fi

	start=$(date +%s)
	{
		grep '^#' "$ledger"
		for name in $(patches "$set"); do
			p=$dir/$name
			if ! (cd "$tmp" && git apply "$OLDPWD/$p"); then
				echo "mutants.sh: $set/$name does not apply" >&2
				fail=1
				continue
			fi
			if ! read -r lint tests < <(mechanisms); then
				echo "mutants.sh: $set/$name does not build" >&2
				lint=? tests=?
				fail=1
			elif [ "$lint" = - ] && [ "$tests" = - ]; then
				echo "mutants.sh: $set/$name survives nmlint and the tests" >&2
				fail=1
			fi
			(cd "$tmp" && git apply -R "$OLDPWD/$p")
			old=$(awk -F'\t' -v n="$name" -v k="$carried" '$1 == n { s = $2; for (i = 3; i <= k + 1; i++) s = s "\t" $i; print s }' "$ledger")
			if [ -z "$old" ]; then
				old=$(for ((i = 0; i < carried; i++)); do printf '?\t'; done | sed 's/\t$//')
			fi
			printf '%s\t%s\t%s\t%s\n' "$name" "$old" "$lint" "$tests"
		done
	} >"$tmp/LEDGER"

	if ! diff -u "$ledger" "$tmp/LEDGER"; then
		cp "$tmp/LEDGER" "$ledger.new"
		echo "mutants.sh: the matrix differs from $ledger; wrote $ledger.new" >&2
		fail=1
	fi
	echo "mutants.sh: $set: $(patches "$set" | wc -l) mutants in $(($(date +%s) - start)) s"
done
exit $fail
