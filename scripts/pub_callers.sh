#!/usr/bin/env sh
# A ratchet on public functions without a caller: counts every `pub fn`
# in a crate's library code — crates/*/src/**/*.rs above its first
# `#[cfg(test)]`, the rule scripts/loc.sh counts lines by, binaries
# (`main.rs`, `src/bin/`) excluded — whose name occurs as a whole word
# in no file outside that library: not in another crate, the root
# package (`src/`, `tests/`, `examples/`), `benchmark/src`, nor the
# crate's own binaries and examples. The crate's own `tests/` does not
# count as a caller, so a function only its integration tests reach is
# counted here; one only its unit tests reach should not exist, and one
# only its own library calls is `pub(crate)`, where rustc's `dead_code`
# lint checks it. A textual scan: a name that also names something
# else elsewhere counts as called. Fails if the count exceeds CEILING.
# A PR that removes entries lowers CEILING to what it leaves; none
# raises it.
#
# usage: scripts/pub_callers.sh [-v]      (-v lists every entry)
set -eu
cd "$(dirname "$0")/.."

CEILING=34

entries=$(for crate in $(ls crates); do
    lib=$(find "crates/$crate/src" -name '*.rs' ! -name main.rs ! -path '*/src/bin/*' | sort)
    # Everything that may call the library from outside it.
    outside=$(find crates src tests examples benchmark/src -name '*.rs' |
        grep -v "^crates/$crate/src/" | grep -v "^crates/$crate/tests/" || true)
    outside="$outside $(find "crates/$crate/src" -name main.rs -o -path '*/src/bin/*.rs')"
    for f in $lib; do
        awk -v file="$f" '/^#\[cfg\(test\)\]/{exit}
            /^[ \t]*pub (const )?(unsafe )?fn [A-Za-z_][A-Za-z0-9_]*/ {
                l = $0; sub(/^[ \t]*pub (const )?(unsafe )?fn /, "", l)
                sub(/[^A-Za-z0-9_].*$/, "", l); print file ":" FNR ": " l}' "$f"
    done | while IFS= read -r entry; do
        name=${entry##*: }
        # shellcheck disable=SC2086
        grep -qw -- "$name" $outside || echo "$entry"
    done
done)
count=$(printf '%s' "$entries" | grep -c . || true)

[ "${1:-}" = -v ] && printf '%s\n' "$entries"
if [ "$count" -gt "$CEILING" ]; then
    echo "pub_callers.sh: $count public functions with no caller outside their library (ceiling $CEILING)" >&2
    exit 1
fi
echo "pub_callers.sh: $count public functions with no caller outside their library (ceiling $CEILING)"
