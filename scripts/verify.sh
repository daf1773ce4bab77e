#!/usr/bin/env bash
# Tier-1 verification plus the cheap perf guards. Runs each stage
# separately so a partial failure is attributed to its stage instead of
# silently truncating the run (set -Eeuo pipefail stops at the first
# failing stage; the ERR trap names it, -E so it fires inside run()).
set -Eeuo pipefail
cd "$(dirname "$0")/.."

stage="(startup)"
trap 'echo "verify: FAILED at stage: $stage" >&2' ERR

# Each stage delegates to its make target so the command definitions
# (gate regexp, tolerances, bench flags) live only in the Makefile;
# GATE_BENCH / BENCH_TOLERANCE / BENCH_ALLOC_TOLERANCE / COVERAGE_FLOOR
# flow through the environment.
run() {
	stage="$1"
	echo "==> verify: $stage"
	make --no-print-directory "$stage"
}

# The test stage always writes a coverage profile so the cover-floor
# gate can compare against the committed baseline; CI passes the same
# flag explicitly to fold its coverage summary into this single run.
export TESTFLAGS="${TESTFLAGS:--coverprofile /tmp/gpuvar_cover.out}"

run build
run fmt
run vet
run staticcheck
run test
run cover-floor
run fuzz-smoke
run perfbench
run bench-smoke
run bench-compare
echo "verify: all stages passed"
