#!/usr/bin/env sh
# Product lines of Rust, per crate and in total: for every
# crates/*/src/**/*.rs, the lines above the first `#[cfg(test)]` that
# are neither blank nor a `//` comment. One rule, so a PR that claims
# to have made the tree smaller cites one number one way.
#
# usage: scripts/loc.sh [crate ...]     (default: every crate)
set -eu
cd "$(dirname "$0")/.."

[ $# -gt 0 ] || set -- $(ls crates)

total=0
for crate in "$@"; do
    n=0
    for f in $(find "crates/$crate/src" -name '*.rs' | sort); do
        lines=$(awk '/^#\[cfg\(test\)\]/{exit} {l=$0; sub(/^[ \t]+/,"",l); if (l=="" || l ~ /^\/\//) next; n++} END{print n+0}' "$f")
        n=$((n + lines))
    done
    printf '%-10s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
