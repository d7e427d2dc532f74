#!/bin/sh
# Fleet determinism gate: run a 16-tenant chaos fleet on the small
# (contended) cluster under BOTH tick engines (stepped and discrete-event)
# at worker counts 1, 4 and 8 — under the race detector — and require the
# fleet/fault event streams to be byte-identical to each other and to the
# checked-in golden. Any scheduling nondeterminism in the parallel
# observe/decide phase, drift in the arbiter's grant order, a change to
# the fault injector's draw discipline, or a divergence between the event
# engine's analytic catch-up and the stepped reference shows up here as a
# byte diff.
#
#   sh scripts/fleet.sh            # verify against testdata/fleet golden
#   UPDATE=1 sh scripts/fleet.sh   # regenerate the golden
set -eu

cd "$(dirname "$0")/.."

OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT

FAULTS="restart-fail:p=0.2,metrics-gap:p=0.05,sched-pressure:p=0.5:dur=60:cores=4"

for ENG in stepped events; do
    for W in 1 4 8; do
        echo "==> fleet chaos run (16 tenants, 240 min, small cluster, engine $ENG, workers $W, -race)"
        go run -race ./cmd/caasper-fleet -tenants 16 -minutes 240 -cluster small \
            -engine "$ENG" -workers "$W" -faults "$FAULTS" -fault-seed 7 \
            -events "$OUT/fleet-$ENG-w$W.ndjson" >/dev/null
        grep -E '"type":"(fleet|fault)\.' "$OUT/fleet-$ENG-w$W.ndjson" > "$OUT/fleet-$ENG-w$W.events.ndjson"
    done
done

REF="$OUT/fleet-stepped-w1.events.ndjson"
for ENG in stepped events; do
    for W in 1 4 8; do
        cmp "$REF" "$OUT/fleet-$ENG-w$W.events.ndjson"
    done
done
echo "==> engines stepped/events byte-identical at workers 1/4/8"

# Sharding determinism: the events legs above run with the default
# -sharding auto (node-disjoint tenant groups in parallel); this leg runs
# -sharding off (every tenant in one group, phase 1 fanned out over the
# workers) against the same stream, so a drift in the shard partition,
# the per-shard clocks or the merge order is a byte diff here.
for W in 1 4 8; do
    echo "==> fleet chaos run (engine events, sharding off, workers $W, -race)"
    go run -race ./cmd/caasper-fleet -tenants 16 -minutes 240 -cluster small \
        -engine events -sharding off -workers "$W" -faults "$FAULTS" -fault-seed 7 \
        -events "$OUT/fleet-nosharding-w$W.ndjson" >/dev/null
    grep -E '"type":"(fleet|fault)\.' "$OUT/fleet-nosharding-w$W.ndjson" > "$OUT/fleet-nosharding-w$W.events.ndjson"
    cmp "$REF" "$OUT/fleet-nosharding-w$W.events.ndjson"
done
echo "==> sharding auto/off byte-identical at workers 1/4/8"

# Multi-resource determinism: the same contract for the resource-vector
# path (RAM + disk + horizontal overflow, mem-pressure faults). The
# events engine rejects multi tenants, so these legs run stepped only.
# The "overflow" leg caps every tenant at 4 cores so the CPU target pins
# and the vertical-first replica rule actually fires: it scales out,
# scales back in and loses scale-outs to the cluster ("reason":
# "scale-out" deferrals). Each leg's stdout summary — which carries the
# RAM/disk bills (ram$, disk$) the events omit — is pinned too.
MFAULTS="mem-pressure:p=0.3:gb=3,metrics-gap:p=0.1"
for LEG in multi overflow; do
    MAXFLAG=""
    if [ "$LEG" = "overflow" ]; then
        MAXFLAG="-max 4"
    fi
    for W in 1 4 8; do
        echo "==> fleet multi-resource run ($LEG, 8 tenants, 240 min, small cluster, workers $W, -race)"
        # shellcheck disable=SC2086 # MAXFLAG is deliberately word-split
        go run -race ./cmd/caasper-fleet -tenants 8 -minutes 240 -cluster small \
            -engine stepped -workers "$W" -resources "ram=4-16,disk=5-40,replicas=1-3" $MAXFLAG \
            -faults "$MFAULTS" -fault-seed 7 \
            -events "$OUT/fleet-$LEG-w$W.ndjson" > "$OUT/fleet-$LEG-w$W.summary.txt"
        grep -E '"type":"(fleet|fault)\.' "$OUT/fleet-$LEG-w$W.ndjson" > "$OUT/fleet-$LEG-w$W.events.ndjson"
    done
    for W in 1 4 8; do
        cmp "$OUT/fleet-$LEG-w1.events.ndjson" "$OUT/fleet-$LEG-w$W.events.ndjson"
        cmp "$OUT/fleet-$LEG-w1.summary.txt" "$OUT/fleet-$LEG-w$W.summary.txt"
    done
    echo "==> multi-resource $LEG stream and summary byte-identical at workers 1/4/8"
done

GOLD=testdata/fleet
if [ "${UPDATE:-0}" = "1" ]; then
    mkdir -p "$GOLD"
    cp "$REF" "$GOLD/fleet-chaos.golden.ndjson"
    cp "$OUT/fleet-multi-w1.events.ndjson" "$GOLD/fleet-multi.golden.ndjson"
    cp "$OUT/fleet-multi-w1.summary.txt" "$GOLD/fleet-multi.summary.golden.txt"
    cp "$OUT/fleet-overflow-w1.events.ndjson" "$GOLD/fleet-overflow.golden.ndjson"
    cp "$OUT/fleet-overflow-w1.summary.txt" "$GOLD/fleet-overflow.summary.golden.txt"
    wc -l "$GOLD"/*.golden.*
    echo "==> goldens regenerated in $GOLD/"
    exit 0
fi

diff -u "$GOLD/fleet-chaos.golden.ndjson" "$REF"
for LEG in multi overflow; do
    diff -u "$GOLD/fleet-$LEG.golden.ndjson" "$OUT/fleet-$LEG-w1.events.ndjson"
    diff -u "$GOLD/fleet-$LEG.summary.golden.txt" "$OUT/fleet-$LEG-w1.summary.txt"
done
echo "==> OK: fleet event streams and multi-resource summaries byte-identical to goldens under both engines at every worker count"
