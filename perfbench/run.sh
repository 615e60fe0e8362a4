#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
#
#   bash perfbench/run.sh --workload analyst --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache live under .bench_build/ at the root
# of the checkout, so a fresh checkout builds everything itself and nothing
# is written outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/../.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
