#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on.
# Run from the repository root:
#   bash benchmark/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
# Build outputs and the Go build cache stay under .bench_build/ in the
# current directory, so the run writes nothing outside the tree.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOWORK=off GOFLAGS= GOTOOLCHAIN=local
export PPROF_TMPDIR="$out/pprof"
# Keep git (which stamps the commit into the binary) inside this tree.
export GIT_CEILING_DIRECTORIES="$(cd "$here/../.." && pwd)"
(cd "$here" && go build -o "$out/tengig-benchmark" .)
exec "$out/tengig-benchmark" "$@"
