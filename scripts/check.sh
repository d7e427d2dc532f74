#!/bin/sh
# Repository-wide verification gate: vet, build, race-enabled tests, and a
# short benchmark smoke over the hot paths and the parallel engine. Run it
# before sending changes (or via `make check`).
set -eu

cd "$(dirname "$0")/.."

# Formatting gate: every tracked Go file must already be gofmt-clean.
echo "==> gofmt -l (tracked .go files)"
UNFORMATTED="$(git ls-files -z '*.go' | xargs -0 gofmt -l)"
if [ -n "$UNFORMATTED" ]; then
    echo "$UNFORMATTED" >&2
    echo "==> FAIL: the files above need gofmt -w" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

# The chaos determinism contract gets a named gate of its own: the fault
# injector, operator retry/abort lifecycle and scaler degradation paths
# must stay deterministic and race-free at any worker count.
echo "==> chaos determinism (fault injection under -race)"
go test -race -run 'Chaos|Fault|Operator|ScalerCursor|ScalerCarries|ScalerHolds|ScalerRecovers' \
    ./internal/faults/ ./internal/k8s/ ./internal/sim/

# Fault-spec grammar fuzz: no input panics ParseSpec, and every accepted
# spec round-trips through its canonical String form (seed corpus in
# internal/faults/testdata/fuzz/).
echo "==> fuzz ParseSpec (10s)"
go test -run '^$' -fuzz '^FuzzParseSpec$' -fuzztime 10s ./internal/faults/

# Decision-kernel oracle fuzz: DecideScratch (memo hits and misses,
# quantiles p across (0, 1], NaN/±Inf/negative/±0 samples, ladders wider
# than 64 SKUs) must equal a spec-literal transcription of Algorithm 1
# bit for bit, up to the sign of a zero quantile (seed corpus in
# internal/core/testdata/fuzz/).
echo "==> fuzz DecideOracle (10s)"
go test -run '^$' -fuzz '^FuzzDecideOracle$' -fuzztime 10s ./internal/core/

# Closed-form catch-up sums: stats.AddN must equal n sequential float64
# adds bit for bit (seed corpus in internal/stats/testdata/fuzz/).
echo "==> fuzz AddN (10s)"
go test -run '^$' -fuzz '^FuzzAddN$' -fuzztime 10s ./internal/stats/

# NDJSON string encoder fuzz: appendJSONString's no-escape fast path must
# equal the byte-at-a-time escape loop, and valid UTF-8 must round-trip
# through encoding/json (seed corpus in internal/obs/testdata/fuzz/).
echo "==> fuzz AppendJSONString (10s)"
go test -run '^$' -fuzz '^FuzzAppendJSONString$' -fuzztime 10s ./internal/obs/

# Public-API drift gate: exported symbols of the root package must match
# the checked-in snapshot (regenerate: UPDATE=1 sh scripts/apicheck.sh).
echo "==> apicheck (exported API vs testdata/api.txt)"
sh scripts/apicheck.sh

# Chaos goldens: fixed-seed fault streams — including the multi-resource
# mem-pressure scenario — must stay byte-identical to testdata/chaos/
# (regenerate: UPDATE=1 sh scripts/chaos.sh).
echo "==> chaos goldens (fault event streams vs testdata/chaos/)"
sh scripts/chaos.sh

# Fleet determinism golden: a 16-tenant chaos fleet must produce
# byte-identical event streams at workers 1/4/8 under -race, matching
# testdata/fleet/ (regenerate: UPDATE=1 sh scripts/fleet.sh).
echo "==> fleet determinism golden"
sh scripts/fleet.sh

# Serve smoke: boot caasper-serve, load-generate two tenants, diff the
# decision streams against testdata/serve/, and require a graceful
# SIGTERM drain to leave a valid snapshot (regenerate: UPDATE=1 sh
# scripts/serve.sh).
echo "==> serve smoke (server + loadgen + decision-stream golden)"
sh scripts/serve.sh

# Examples smoke: every runnable program under examples/ must build and
# exit 0 (output is not pinned; the goldens above pin behaviour).
echo "==> examples smoke (build + run every examples/* program)"
EXDIR="$(mktemp -d)"
trap 'rm -rf "$EXDIR"' EXIT
for ex in examples/*/; do
    name="$(basename "$ex")"
    go build -o "$EXDIR/$name" "./$ex"
    "$EXDIR/$name" >/dev/null || { echo "==> FAIL: example $name exited non-zero" >&2; exit 1; }
done

# BenchmarkDecide also matches the BenchmarkDecideScratch decision-loop
# rows, and BenchmarkFleetTickChaos the NDJSON-stream row
# BenchmarkFleetTickChaosNDJSON.
echo "==> benchmark smoke (1x, hot paths + parallel engine)"
go test -run xxx -bench 'BenchmarkDecide|BenchmarkBuildCurve|BenchmarkSimulateWorkday|BenchmarkFleetTickChaos' -benchtime 1x -benchmem .
go test -run xxx -bench 'BenchmarkRandomSearchParallel' -benchtime 1x -benchmem ./internal/tuning/
go test -run xxx -bench 'BenchmarkRunMatrixParallel' -benchtime 1x -benchmem ./internal/sim/

# Optional stage: capture full benchmark numbers to BENCH_sim.json and
# diff them against the previous capture (scripts/benchdiff fails on >10%
# ns/op or any allocs/op regression). Off by default (it costs real
# benchtime); enable with CHECK_BENCH=1 make check.
if [ "${CHECK_BENCH:-0}" = "1" ]; then
    echo "==> benchmark capture (scripts/bench.sh -> BENCH_sim.json)"
    PREV=""
    if [ -f BENCH_sim.json ]; then
        PREV="$(mktemp)"
        cp BENCH_sim.json "$PREV"
    fi
    sh scripts/bench.sh
    if [ -n "$PREV" ]; then
        echo "==> benchmark regression diff (scripts/benchdiff)"
        sh scripts/benchdiff "$PREV" BENCH_sim.json
        rm -f "$PREV"
    fi
fi

echo "==> OK"
