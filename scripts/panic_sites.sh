#!/usr/bin/env sh
# A ratchet on panic sites: counts `.unwrap()`, `.expect(` and
# `debug_assert` in product code — every crates/*/src/**/*.rs above its
# first `#[cfg(test)]`, skipping blank and `//` comment lines, the rule
# scripts/loc.sh counts lines by — and fails if the count exceeds
# CEILING. A PR that removes sites lowers CEILING to what it leaves;
# none raises it.
#
# usage: scripts/panic_sites.sh [-v]      (-v lists every site)
set -eu
cd "$(dirname "$0")/.."

CEILING=82

sites=$(for f in $(find crates/*/src -name '*.rs' | sort); do
    awk -v file="$f" '/^#\[cfg\(test\)\]/{exit}
        {l=$0; sub(/^[ \t]+/,"",l); if (l=="" || l ~ /^\/\//) next;
         n = gsub(/\.unwrap\(\)|\.expect\(|debug_assert/, "&", l);
         for (i = 0; i < n; i++) print file ":" FNR ": " l}' "$f"
done)
count=$(printf '%s' "$sites" | grep -c . || true)

[ "${1:-}" = -v ] && printf '%s\n' "$sites"
if [ "$count" -gt "$CEILING" ]; then
    echo "panic_sites.sh: $count panic sites in product code (ceiling $CEILING)" >&2
    exit 1
fi
echo "panic_sites.sh: $count panic sites in product code (ceiling $CEILING)"
