#!/usr/bin/env sh
# The experiment tables as a gate: runs every e* bench and compares
# what they print, byte for byte, with crates/bench/tables.txt. The
# tables are virtual-time only, so a difference is a behaviour change.
#
# Only the e* targets run: a bare `cargo bench` also starts every
# crate's libtest harness, whose lines carry test counts and a host
# `finished in` time.
#
# usage: scripts/e_tables.sh [--bless]
set -eu
cd "$(dirname "$0")/.."

WANT=crates/bench/tables.txt
GOT=$(mktemp)
trap 'rm -f "$GOT"' EXIT

BENCHES=$(ls crates/bench/benches/e*.rs | sed 's|.*/\(.*\)\.rs$|--bench \1|')
# shellcheck disable=SC2086
cargo bench -q -p pegasus-bench $BENCHES >"$GOT"

if [ "${1:-}" = "--bless" ]; then
    cp "$GOT" "$WANT"
    echo "e_tables.sh: blessed $WANT"
elif cmp -s "$GOT" "$WANT"; then
    echo "e_tables.sh: tables match $WANT"
else
    diff -u "$WANT" "$GOT" || true
    echo "e_tables.sh: tables differ from $WANT (--bless to accept)" >&2
    exit 1
fi
