#!/usr/bin/env sh
# Where does an operation spend its host time, and what does it hold in
# memory at its fullest? The host has no `perf`; this builds
# crates/scenario/examples/sigprof.rs — a SIGPROF sampler that walks
# frame pointers — with frame pointers forced on, into its own target
# directory (different RUSTFLAGS would otherwise rebuild the whole
# workspace in place), and runs it. With --live it runs the sibling
# crates/scenario/examples/livebytes.rs instead.
#
# usage: scripts/profile.sh <preset | metro-steady | front-door | control-3x | pfs> [ops]
#        scripts/profile.sh <preset | metro-steady | front-door | control-3x> --live [seed]
#
# `pfs` is a storage loop on pegasus_pfs directly, in the shape of the
# benchmark's pfs-vcr (interleaved appends, read-back, clean, tiered CM).
#
# This kernel ticks ITIMER_PROF at 4 ms whatever interval is asked for,
# so ten `metro-steady` ops yield ~1,000 samples (±1.5 points on a share):
# ask for enough ops.
#
# All three tables print a share and `ms/op` (samples x 4 ms / ops).
# Compare two commits by ms/op: a share is of a sample total that a
# saving itself shrinks, so every row the change never touched reads
# higher afterwards. The first two bill a sample to its leaf (self
# time: by leaf-most pegasus_* crate, by symbol); the third bills it
# once to every symbol on its stack (inclusive time, top 30) — where to
# look for a function that is cheap itself and dear in what it calls.
#
# --live runs one operation (one shard, the target's spec at [seed] or
# its own) under a counting allocator and prints the peak of live heap
# bytes and, by power-of-two size class, how many allocations and bytes
# were live at that peak: one size holding most of the bytes is one kind
# of buffer kept too long or too often. Exact and repeatable at a seed.
set -eu
cd "$(dirname "$0")/.."

[ $# -ge 1 ] || { sed -n '2,33p' "$0" >&2; exit 2; }

example=sigprof
if [ "${2:-}" = --live ]; then
    example=livebytes
    target=$1
    shift 2
    set -- "$target" "$@"
fi

RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR=target/profile \
    cargo build --release --quiet -p pegasus-scenario --example "$example"
exec "target/profile/release/examples/$example" "$@"
