#!/bin/sh
# Public-API drift gate: dump the exported symbols of the root caasper
# package (scripts/apidump) and diff them against the checked-in
# snapshot. A removed re-export or renamed constructor fails here as a
# byte diff instead of surprising downstream callers.
#
# Every addition and every removal requires an intentional UPDATE=1
# regeneration. Symbols are retired by migrating their callers first,
# then deleting them.
#
#   sh scripts/apicheck.sh            # verify against testdata/api.txt
#   UPDATE=1 sh scripts/apicheck.sh   # regenerate after an intentional change
set -eu

cd "$(dirname "$0")/.."

OUT=$(mktemp)
REMOVED=$(mktemp)
ADDED=$(mktemp)
trap 'rm -f "$OUT" "$REMOVED" "$ADDED"' EXIT

go run ./scripts/apidump | LC_ALL=C sort > "$OUT"

GOLD=testdata/api.txt
if [ "${UPDATE:-0}" = "1" ]; then
    cp "$OUT" "$GOLD"
    wc -l "$GOLD"
    echo "==> API snapshot regenerated in $GOLD"
    exit 0
fi

if cmp -s "$GOLD" "$OUT"; then
    echo "==> OK: exported API matches $GOLD ($(wc -l < "$GOLD") symbols)"
    exit 0
fi

LC_ALL=C comm -23 "$GOLD" "$OUT" > "$REMOVED"
LC_ALL=C comm -13 "$GOLD" "$OUT" > "$ADDED"

if [ -s "$REMOVED" ]; then
    echo "==> FAIL: exported symbols removed from the public API:" >&2
    sed 's/^/    - /' "$REMOVED" >&2
    echo "    (removals always fail; regenerate with UPDATE=1 only for an intentional break)" >&2
    exit 1
fi

echo "==> FAIL: new exported symbols:" >&2
sed 's/^/    + /' "$ADDED" >&2
echo "    (run UPDATE=1 sh scripts/apicheck.sh to bless an intentional API addition)" >&2
exit 1
