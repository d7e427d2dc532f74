#!/bin/sh
# Benchmark capture: runs the hot-path benchmarks and writes the results
# as machine-readable JSON to BENCH_sim.json (array of {name, ns_op,
# allocs_op, bytes_op, tenant_minutes_s}), so perf regressions are
# diffable across commits.
#
# The main filter's BenchmarkDecide prefix also captures the
# BenchmarkDecideScratch/plateau and /noisy decision-loop rows.
#
# Two passes: the main filter runs at the default GOMAXPROCS (the "-N"
# name suffix is stripped — those rows are machine-width-independent),
# then the core-scaling probe BenchmarkFleetMonth10k repeats at -cpu
# 1,4,8 with each GOMAXPROCS variant kept as its own row (the bare name
# is the 1-cpu run; Go only suffixes names when GOMAXPROCS > 1), so the
# sharded engine's multi-core curve is pinned alongside the single-core
# numbers.
#
#   scripts/bench.sh                # default filter + count
#   BENCH_FILTER=BenchmarkDecide scripts/bench.sh
#   BENCH_SCALE_CPUS=1,2,4,8 scripts/bench.sh   # wider scaling sweep
#   BENCH_COUNT=5 scripts/bench.sh  # more samples (go test -count semantics
#                                   # via -benchtime; last sample wins here)
set -eu

cd "$(dirname "$0")/.."

FILTER="${BENCH_FILTER:-BenchmarkDecide|BenchmarkBuildCurve|BenchmarkSimulateWorkday|BenchmarkRecommenderMonthTrace|BenchmarkFleetTick|BenchmarkFleetWeek1k|BenchmarkFleetMonth100k\$|BenchmarkRandomSearch\$|BenchmarkServeIngest\$}"
SCALE_FILTER="${BENCH_SCALE_FILTER:-BenchmarkFleetMonth10k\$}"
SCALE_CPUS="${BENCH_SCALE_CPUS:-1,4,8}"
BENCHTIME="${BENCH_BENCHTIME:-1s}"
OUT="${BENCH_OUT:-BENCH_sim.json}"

# parse emits one JSON object per benchmark line. keep=1 keeps the
# GOMAXPROCS suffix ("-8") in the name; keep=0 strips it. A benchmark
# line looks like:
#   BenchmarkSimulateWorkday-8   5000   207482 ns/op   55562 B/op   387 allocs/op
parse() {
    awk -v keep="$1" '
    $1 ~ /^Benchmark/ && /ns\/op/ {
        name = $1
        if (!keep) sub(/-[0-9]+$/, "", name)
        ns = ""; bytes = ""; allocs = ""; tm = ""
        for (i = 2; i <= NF; i++) {
            if ($i == "ns/op")            ns = $(i-1)
            if ($i == "B/op")             bytes = $(i-1)
            if ($i == "allocs/op")        allocs = $(i-1)
            if ($i == "tenant_minutes/s") tm = $(i-1)
        }
        if (ns == "") next
        printf "  {\"name\": \"%s\", \"ns_op\": %s", name, ns
        if (bytes != "")  printf ", \"bytes_op\": %s", bytes
        if (allocs != "") printf ", \"allocs_op\": %s", allocs
        if (tm != "")     printf ", \"tenant_minutes_s\": %s", tm
        print "}"
    }'
}

echo "==> go test -bench '$FILTER' -benchtime $BENCHTIME -benchmem ."
RAW="$(go test -run xxx -bench "$FILTER" -benchtime "$BENCHTIME" -benchmem . | tee /dev/stderr)"

echo "==> go test -bench '$SCALE_FILTER' -cpu $SCALE_CPUS -benchtime $BENCHTIME -benchmem ."
SCALERAW="$(go test -run xxx -bench "$SCALE_FILTER" -cpu "$SCALE_CPUS" -benchtime "$BENCHTIME" -benchmem . | tee /dev/stderr)"

{
    printf '%s\n' "$RAW" | parse 0
    printf '%s\n' "$SCALERAW" | parse 1
} | awk '
BEGIN { print "[" }
{ rows[++n] = $0 }
END {
    for (i = 1; i <= n; i++) printf "%s%s\n", rows[i], i < n ? "," : ""
    print "]"
}' > "$OUT"

echo "==> wrote $OUT ($(grep -c '"name"' "$OUT") benchmarks)"
