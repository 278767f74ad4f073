#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the root of a checkout: the Go build cache, the binary and
# every file a run writes stay under .bench_build/ there.
set -euo pipefail
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$PWD/.bench_build
mkdir -p "$out/tmp"
# The benchmark is its own module beside the repository's go.work, and
# needs nothing from the network.
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath TMPDIR=$out/tmp
(cd "$src" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
