#!/usr/bin/env sh
# Settable values, per crate and in total: the `pub` fields, named or
# tuple, of every `pub struct` in crates/*/src/**/*.rs above the first
# `#[cfg(test)]`.
# A `pub` field is a value any caller can set, so a PR that claims to
# have removed options cites one number counted one way. Not a ratchet:
# a new public counter is a legitimate field.
#
# usage: scripts/pub_fields.sh [crate ...]     (default: every crate)
set -eu
cd "$(dirname "$0")/.."

[ $# -gt 0 ] || set -- $(ls crates)

total=0
for crate in "$@"; do
    n=0
    for f in $(find "crates/$crate/src" -name '*.rs' | sort); do
        fields=$(awk '/^#\[cfg\(test\)\]/{exit}
            /^[ \t]*pub struct [A-Za-z0-9_]+\(/ {l = $0; sub(/^[^(]*\(/, "", l); n += gsub(/pub /, "", l); next}
            /^[ \t]*pub struct [A-Za-z0-9_<>, ]+\{[ \t]*$/ {inside = 1; next}
            inside && /^[ \t]*\}/ {inside = 0; next}
            inside && /^[ \t]*pub [a-z_][a-z0-9_]*:/ {n++}
            END {print n+0}' "$f")
        n=$((n + fields))
    done
    printf '%-10s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
