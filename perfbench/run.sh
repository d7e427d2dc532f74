#!/usr/bin/env bash
# Builds the CaaSPER benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload fleet-month-plateau --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Every build artefact (the Go build cache
# included) stays under .bench_build/ (or $CARGO_TARGET_DIR when set), so
# the run reads and writes nothing outside the checkout but the toolchain.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ]; then
    echo "perfbench: run from the repository root (go.mod and perfbench/go.mod must exist)" >&2
    exit 2
fi

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
    /*) ;;
    *) out="$root/$out" ;;
esac
mkdir -p "$out/perfbench" "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export GOPROXY=off
export GOENV=off

(cd perfbench && go build -o "$out/perfbench/perfbench" .) >&2
exec "$out/perfbench/perfbench" "$@"
