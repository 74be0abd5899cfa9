#!/usr/bin/env sh
# Test-count floor: runs the whole workspace suite and refuses to pass
# if the number of passing tests ever drops below the floor — a deleted
# test file or a silently skipped crate cannot slip through as "all
# green". Raise the floor when the suite legitimately grows.
set -eu
cd "$(dirname "$0")/.."

FLOOR=670

OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT

# A test failure fails this script directly (plain `sh` has no
# pipefail, so capture to a file rather than pipe); the floor below
# guards against the quieter failure mode of tests disappearing.
if ! cargo test -q >"$OUT" 2>&1; then
    cat "$OUT"
    echo "test_floor.sh: test failures reported above" >&2
    exit 1
fi
cat "$OUT"

TOTAL=$(awk '/^test result: ok\./ { sub(/^test result: ok\. /, ""); s += $1 } END { print s + 0 }' "$OUT")
if [ "$TOTAL" -lt "$FLOOR" ]; then
    echo "test_floor.sh: suite shrank to $TOTAL passing tests (floor $FLOOR)" >&2
    exit 1
fi
echo "test_floor.sh: $TOTAL tests passed (floor $FLOOR)"
