#!/usr/bin/env sh
# Re-bless check: proves a golden re-bless moved only the keys it says
# it moved. For every crates/scenario/tests/golden/*.json, takes the
# file as committed at <rev>, deletes the named scalar keys (at any
# depth) and the schema_version *value*, and byte-compares with the
# working tree's golden given the same treatment. Prints one line per
# golden with `events_executed` at <rev> and now — the old one read off
# the old golden where it still holds the key, the new one off a run of
# the preset the file name encodes (`<preset>[@<scale>].json`).
#
# usage: scripts/golden_diff.sh <rev> <key>...
#   e.g. scripts/golden_diff.sh HEAD~1 events_executed endpoints
set -eu
cd "$(dirname "$0")/.."

[ $# -ge 1 ] || { echo "usage: scripts/golden_diff.sh <rev> <key>..." >&2; exit 2; }
REV=$1
shift
KEYS=$*

cargo build -q --release --bin pegasus-scenario
BIN=target/release/pegasus-scenario
DIR=crates/scenario/tests/golden
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# A key that is not first in its object goes with the comma before it,
# a first key with the comma after it.
STRIP='s/"schema_version":[0-9]*/"schema_version":/'
for key in "$@"; do
    STRIP="$STRIP;s/,\"$key\":[^][,{}]*//g;s/\"$key\":[^][,{}]*,//g"
done

events_of() {
    sed -n 's/.*"events_executed":\([0-9]*\).*/\1/p' "$1"
}

bad=0
printf '%-28s %12s %12s %7s  %s\n' golden "events@$REV" events_now change bytes
for path in "$DIR"/*.json; do
    name=$(basename "$path" .json)
    git show "$REV:$path" >"$TMP/old.json"
    sed "$STRIP" "$TMP/old.json" >"$TMP/old.stripped"
    sed "$STRIP" "$path" >"$TMP/new.stripped"
    if cmp -s "$TMP/old.stripped" "$TMP/new.stripped"; then
        verdict=same
    else
        verdict=DIFFER
        bad=1
    fi
    preset=${name%@*}
    set -- run "$preset" --quiet
    [ "$preset" = "$name" ] || set -- "$@" --scale "${name#*@}"
    "$BIN" "$@" >"$TMP/run.json"
    old=$(events_of "$TMP/old.json")
    new=$(events_of "$TMP/run.json")
    pct=$(awk -v o="${old:-0}" -v n="$new" 'BEGIN { if (o > 0) printf "%+.1f%%", (n - o) * 100 / o; else print "-" }')
    printf '%-28s %12s %12s %7s  %s\n' "$name" "${old:--}" "$new" "$pct" "$verdict"
done

if [ "$bad" -ne 0 ]; then
    echo "golden_diff.sh: a golden moved beyond the named keys" >&2
    exit 1
fi
echo "golden_diff.sh: every golden equals its $REV self minus: schema_version's value $KEYS"
