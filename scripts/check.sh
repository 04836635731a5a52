#!/usr/bin/env bash
# check.sh — the one-command tier-1 verification pipeline.
#
# Runs, in order:
#   1. go build ./...                 compile everything
#   2. nmlint ./...                   determinism & concurrency lint suite
#                                     (incl. simpure: event-callback purity)
#   3. go vet ./...                   the stock vet checks
#   4. go test ./...                  full test suite (includes TestRows:
#                                     every registry row's bytes against
#                                     testdata/rows.golden, the 386 run too;
#                                     and internal/lint's whole-module gates,
#                                     skipped in -short: TestWholeModuleClean,
#                                     TestOneObjectPerDeclaration,
#                                     TestNoTestOnlyFunctions and
#                                     TestNoTestOnlyFields: no production
#                                     function or struct field that only
#                                     tests use, and TestNoPackageLocalExports:
#                                     no exported name that only its own
#                                     package uses; bench/_layers counts as a
#                                     user; and TestReplayAllocs: the exact
#                                     malloc count of one replay per mode,
#                                     testdata/replay_allocs.golden)
#   4b. mutant matrix                 scripts/mutants.sh, both sets of
#                                     testdata/mutants: every alloc patch
#                                     applied in turn to a copy, each killed
#                                     by nmlint or the allocation pins as
#                                     testdata/mutants/alloc/LEDGER records
#                                     (~3 min); the trace set (every mutant
#                                     killed by internal/trace's tests, ~5
#                                     min in full: scripts/mutants.sh trace)
#                                     only checked to apply, its ledger to
#                                     list exactly its patches
#   5. GOARCH=386 go test ./...       the full suite as a 32-bit build (cgo
#                                     off): an int narrower than the int64
#                                     it is read from must not slip past
#                                     the trace readers
#   5b. no fused multiply-add         the commands cross-compiled for arm64,
#                                     ppc64le, s390x and riscv64 with -S: no
#                                     F(N)MADD/F(N)MSUB[S|D] in a repro/
#                                     function, so a trace (k-means' floats)
#                                     is the same bytes on every GOARCH — the
#                                     record caches' keys do not name one
#   6. go test -race -short ./...     race detector over the short suite
#                                     (incl. the shared-replay differentials,
#                                     TestShared*: every cell a sweep fills
#                                     from another's replay against its own
#                                     replay, pooled)
#   7. chaos smoke                    the short-mode interrupt/resume chaos
#                                     test: sweeps killed at seeded slice
#                                     boundaries must resume byte-identically,
#                                     across the shared-replay seam too (a
#                                     representative killed mid-replay, a
#                                     manifest holding it without its aliases
#                                     and the converse)
#   8. fuzz smoke                     10s each of FuzzReadTrace (v2 decoder:
#                                     also held to refReadTrace, the reader
#                                     into []Op, error for error, column
#                                     for column; no stream of another
#                                     version accepted) and FuzzOpenColumnar (v3
#                                     open/cursor path): no panics on hostile
#                                     bytes, every failure a *DecodeError;
#                                     10s of
#                                     FuzzBuilderMatchesReference (generated
#                                     op mixes: the v3 column builder against
#                                     refEncodeColumnar, the two-pass encoder,
#                                     byte for byte); 10s of
#                                     FuzzCRC64Combine (per-part CRCs folded
#                                     by crc64Combine against one streamed
#                                     CRC: the identity the digest lanes
#                                     rest on); 10s of
#                                     FuzzReplayMatchesReference (semantic
#                                     traces: the replay kernel against the
#                                     naive reference replay); and 10s of
#                                     FuzzAccessMatchesReference (the packed
#                                     cache sets against the timestamp-LRU
#                                     reference and a stack-distance oracle)
#   9. serve smoke                    boot nmsimd, run the golden sweep
#                                     locally + remotely cold + remotely
#                                     cached, cmp all three byte-identical
#                                     (then the bandwidth sweep the same way,
#                                     as text and as CSV rows; its two
#                                     recordings resident in the trace
#                                     store; nmsim local vs -server too),
#                                     SIGTERM-drain to exit 0
#  10. schedule smoke                 the recorder-lane schedule is invisible:
#                                     nmsim stdout cmp-equal at -par 1,
#                                     default -par and GOMAXPROCS=1, with and
#                                     without -timings (stderr only); sweep
#                                     stdout and -manifest file cmp-equal with
#                                     -timings on and off; an expired -timeout
#                                     exits 130 with both .nmt3 cache files
#                                     written, and the warm run after it
#                                     leaves them untouched; sweep -exp=table1
#                                     prints nmsim's bytes; a supervised run
#                                     records each workload once (nmsim's
#                                     telemetry replay, -corelist 8,8,16);
#                                     a cold 2^20 Table I and its two .nmt3
#                                     files match rows.golden's large/ lines
#  11. trace identity                 an nmsort recording at -cores 64 (many
#                                     thread boundaries for the v2 reader's
#                                     framing scan): v2 -> v3 -> v2 gives the
#                                     recorded bytes back, replay prints one
#                                     report from either file, and record and
#                                     convert at GOMAXPROCS=1 write the same
#                                     files and convert lines as at the
#                                     default; converting again onto the
#                                     files that now exist, and each file
#                                     onto itself (a v3 image at a .nmt name
#                                     too), writes the same bytes and leaves
#                                     no hidden temporary file
#  12. benchmark module               go vet -C bench ./_layers && go test -C
#                                     bench ./...: bench/ is its own module
#                                     and the one importer of repro/internal
#                                     outside this one, so a renamed or
#                                     retyped export breaks there and nowhere
#                                     above
#
# The race pass (6) also carries the schedule's structural tests — the
# sequential-driver oracle, overlap, the -par bound, no per-trace barrier,
# failure, panic and cancellation (internal/harness/schedule_test.go).
#
# Any stage failing fails the whole script. Run from anywhere inside the
# repository.
set -euo pipefail

cd "$(dirname "$0")/.."

step() {
	echo "== $* =="
	"$@"
}

# no_fma fails on any fused multiply-add the compiler emits for repro/ code on
# an architecture that has one (FMADD, FMSUBS, FNMADDD, ...); an explicit
# float64() around the product is the fix.
no_fma() {
	local arch asm
	for arch in arm64 ppc64le s390x riscv64; do
		if ! asm=$(GOARCH=$arch go build -o /dev/null -gcflags='repro/...=-S' ./cmd/... 2>&1); then
			echo "$asm" >&2
			return 1
		fi
		if grep -E '\bFN?M(ADD|SUB)[SD]?\b' <<<"$asm"; then
			echo "fused multiply-add in repro/ code on $arch: round the product with float64()" >&2
			return 1
		fi
	done
}

# trace_identity runs check 11 in a scratch directory: the same commands once
# at the default GOMAXPROCS and once at 1, each in its own directory under the
# same relative paths, so the convert lines (which name their files) compare
# too.
trace_identity() (
	d=$(mktemp -d)
	trap 'rm -rf "$d"' EXIT
	go build -o "$d/nmtrace" ./cmd/nmtrace
	cd "$d"
	rec="record -alg nmsort -n 16384 -cores 64 -sp 1"
	for procs in default 1; do
		mkdir "$procs"
		(
			cd "$procs"
			if [ "$procs" = 1 ]; then
				export GOMAXPROCS=1
			fi
			../nmtrace $rec -o rec.nmt >/dev/null
			../nmtrace $rec -o rec.nmt3 >/dev/null
			../nmtrace convert -i rec.nmt -o conv.nmt3 >convert.txt
			../nmtrace convert -i conv.nmt3 -o back.nmt >>convert.txt
			cp conv.nmt3 first.nmt3
			cp back.nmt first.nmt
			cp conv.nmt3 image.nmt
			# Again onto the outputs that now exist, then each onto itself
			# (image.nmt: a v3 image a .nmt name turns into the v2 stream):
			# every pass writes the first pass's bytes.
			for io in "rec.nmt conv.nmt3" "conv.nmt3 back.nmt" "conv.nmt3 conv.nmt3" \
				"back.nmt back.nmt" "image.nmt image.nmt"; do
				set -- $io
				../nmtrace convert -i "$1" -o "$2" >/dev/null
				cmp "first.${2##*.}" "$2"
			done
			if ls -A | grep '^\.'; then
				echo "nmtrace convert left a hidden temporary file behind" >&2
				exit 1
			fi
			../nmtrace replay -i rec.nmt -near 16 >replay_v2.txt
			../nmtrace replay -i conv.nmt3 -near 16 >replay_v3.txt
		)
	done
	cat default/convert.txt
	for f in rec.nmt rec.nmt3 conv.nmt3 back.nmt convert.txt replay_v2.txt replay_v3.txt; do
		cmp "default/$f" "1/$f"
	done
	cmp default/rec.nmt default/back.nmt
	cmp default/rec.nmt3 default/conv.nmt3
	cmp default/replay_v2.txt default/replay_v3.txt
)

step go build ./...
step go run ./cmd/nmlint ./...
step go vet ./...
step go test ./...
step ./scripts/mutants.sh alloc
step ./scripts/mutants.sh -apply-only trace
step env GOARCH=386 CGO_ENABLED=0 go test ./...
step no_fma
step go test -race -short ./...
step go test -run='^TestChaosInterruptResume$' -short -count=1 ./internal/harness
step go test -run='^$' -fuzz='^FuzzReadTrace$' -fuzztime=10s ./internal/trace
step go test -run='^$' -fuzz='^FuzzOpenColumnar$' -fuzztime=10s ./internal/trace
step go test -run='^$' -fuzz='^FuzzBuilderMatchesReference$' -fuzztime=10s ./internal/trace
step go test -run='^$' -fuzz='^FuzzCRC64Combine$' -fuzztime=10s ./internal/trace
step go test -run='^$' -fuzz='^FuzzReplayMatchesReference$' -fuzztime=10s ./internal/machine
step go test -run='^$' -fuzz='^FuzzAccessMatchesReference$' -fuzztime=10s ./internal/cachesim
step ./scripts/serve_smoke.sh
step ./scripts/schedule_smoke.sh
step trace_identity
step go vet -C bench ./_layers
step go test -C bench ./...

echo "== all checks passed =="
