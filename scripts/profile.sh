#!/usr/bin/env sh
# Where does an operation spend its host time? The host has no `perf`;
# this builds crates/scenario/examples/sigprof.rs — a SIGPROF sampler
# that walks frame pointers — with frame pointers forced on, into its
# own target directory (different RUSTFLAGS would otherwise rebuild the
# whole workspace in place), and runs it.
#
# usage: scripts/profile.sh <preset | metro-steady | front-door | control-3x | pfs> [ops]
#
# `pfs` is a storage loop on pegasus_pfs directly, in the shape of the
# benchmark's pfs-vcr (interleaved appends, read-back, clean, tiered CM).
#
# This kernel ticks ITIMER_PROF at 4 ms whatever interval is asked for,
# so ten `metro-steady` ops yield ~1,000 samples (±1.5 points on a share):
# ask for enough ops.
#
# Both tables print `self %` and `ms/op` (samples x 4 ms / ops). Compare
# two commits by ms/op: a share is of a sample total that a saving itself
# shrinks, so every row the change never touched reads higher afterwards.
set -eu
cd "$(dirname "$0")/.."

[ $# -ge 1 ] || { sed -n '2,19p' "$0" >&2; exit 2; }

RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR=target/profile \
    cargo build --release --quiet -p pegasus-scenario --example sigprof
exec target/profile/release/examples/sigprof "$@"
