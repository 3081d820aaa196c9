#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments go to sthbench.
# Run from the repository root:
#
#   bash bench/run.sh -workload refine -seed 1 [-seconds 12] [-trace 0|1] [-out FILE]
#
# Everything the build and the runs write stays in .bench_build/ under the
# root: the Go build cache, the binaries, the generated tables, the WAL
# directories and the spans of traced runs.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS= XDG_CONFIG_HOME="$build/config"
(cd bench && go build -o "$build/bin/sthbench" ./cmd/sthbench)
exec "$build/bin/sthbench" -root "$root" -work "$build" "$@"
