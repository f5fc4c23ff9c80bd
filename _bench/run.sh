#!/usr/bin/env bash
# Builds the stmaker serving benchmark from source and runs it with the
# given arguments. Run from the repository root:
#
#   bash _bench/run.sh --workload short-dense --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, the binary, trace files)
# lands in .bench_build/ under the current directory.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/stmbench" .)
exec "$out/stmbench" "$@"
