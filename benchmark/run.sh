#!/usr/bin/env bash
# Builds the COPMECS benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload fig9-cold --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact stays under .bench_build/ in the current
# directory: the Go build cache, the binary, journals and span files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomod"
export GOTMPDIR="$out/tmp"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=

(cd "$root/benchmark" && go build -o "$out/copmecs-bench" .)
exec "$out/copmecs-bench" "$@"
