#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload predict_hot --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build product, cache and
# scratch file stays under .bench_build/ in that root.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/server ] || [ ! -f perfbench/go.mod ]; then
    echo "perfbench: run from the repository root (go.mod and internal/ not found)" >&2
    exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=
export GOTOOLCHAIN=local
export GOPROXY=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out/run" "$@"
