#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload fastpath --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and span file stays under .bench_build in
# the current directory. Outside a full checkout (no repository module
# next to perfbench/) the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
