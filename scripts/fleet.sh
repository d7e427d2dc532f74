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
# events engine rejects multi tenants, so this leg runs stepped only.
MFAULTS="mem-pressure:p=0.3:gb=3,metrics-gap:p=0.1"
for W in 1 4 8; do
    echo "==> fleet multi-resource run (8 tenants, 240 min, small cluster, workers $W, -race)"
    go run -race ./cmd/caasper-fleet -tenants 8 -minutes 240 -cluster small \
        -engine stepped -workers "$W" -resources "ram=4-16,disk=5-40,replicas=1-3" \
        -faults "$MFAULTS" -fault-seed 7 \
        -events "$OUT/fleet-multi-w$W.ndjson" >/dev/null
    grep -E '"type":"(fleet|fault)\.' "$OUT/fleet-multi-w$W.ndjson" > "$OUT/fleet-multi-w$W.events.ndjson"
done
MREF="$OUT/fleet-multi-w1.events.ndjson"
for W in 1 4 8; do
    cmp "$MREF" "$OUT/fleet-multi-w$W.events.ndjson"
done
echo "==> multi-resource stream byte-identical at workers 1/4/8"

GOLD=testdata/fleet
if [ "${UPDATE:-0}" = "1" ]; then
    mkdir -p "$GOLD"
    cp "$REF" "$GOLD/fleet-chaos.golden.ndjson"
    cp "$MREF" "$GOLD/fleet-multi.golden.ndjson"
    wc -l "$GOLD"/*.golden.ndjson
    echo "==> goldens regenerated in $GOLD/"
    exit 0
fi

diff -u "$GOLD/fleet-chaos.golden.ndjson" "$REF"
diff -u "$GOLD/fleet-multi.golden.ndjson" "$MREF"
echo "==> OK: fleet event streams byte-identical to goldens under both engines at every worker count"
