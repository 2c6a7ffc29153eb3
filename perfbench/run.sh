#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, from
# the root of a checkout:
#
#   bash perfbench/run.sh --workload serve-unique --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays in .bench_build/ of the
# checkout: the Go build cache, the binary, index files and traces.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOWORK=off
export GOPATH="$out/gopath" GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
