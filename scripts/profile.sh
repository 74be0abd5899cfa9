#!/usr/bin/env sh
# Where does an operation spend its host time, and what does it hold in
# memory at its fullest? The host has no `perf`; this builds
# crates/scenario/examples/sigprof.rs — a SIGPROF sampler that walks
# frame pointers — with frame pointers forced on, into its own target
# directory (different RUSTFLAGS would otherwise rebuild the whole
# workspace in place), and runs it. With --live it runs the sibling
# crates/scenario/examples/livebytes.rs instead.
#
# usage: scripts/profile.sh <workload | preset> [ops]
#        scripts/profile.sh <workload | preset> --live [seed]
#
# A workload is one of the benchmark's four (pegasus_scenario::workloads):
# metro-steady, front-door and control-3x are scenario specs, and pfs-vcr
# is its storage script on pegasus_pfs directly (interleaved appends,
# checkpoint, both read paths, clean, recover, tiered CM play-out) over
# files made before the ops. A workload runs at seed 7 unless given one
# (--live only); a preset runs at its own seed. A workload's ops run its
# checks: the script names each check an op broke on stderr and exits 1.
#
# This kernel ticks ITIMER_PROF at 4 ms whatever interval is asked for,
# so ten `metro-steady` ops yield ~1,000 samples (±1.5 points on a share):
# ask for enough ops.
#
# The header line gives the sampled ms/op and, from /proc/self/stat
# around the ops, user and sys CPU ms/op and minor page faults/op: an
# op that faults fresh memory in shows as sys time and faults there,
# and only as an anonymous "[libc.so.6]" leaf in the tables.
#
# All three tables print a share and `ms/op` (samples x 4 ms / ops).
# Compare two commits by ms/op: a share is of a sample total that a
# saving itself shrinks, so every row the change never touched reads
# higher afterwards. The first two bill a sample to its leaf (self
# time: by leaf-most pegasus_* crate, by symbol); the third bills it
# once to every symbol on its stack (inclusive time, top 30) — where to
# look for a function that is cheap itself and dear in what it calls.
#
# --live runs one operation (the target at [seed], or at its default
# seed) under a counting allocator and prints the peak of live heap
# bytes and, by power-of-two size class, how many allocations and bytes
# were live at that peak: one size holding most of the bytes is one
# kind of buffer kept too long or too often. Then it names what holds them: every allocation of 1 KiB or
# more live at the peak, grouped by the first three pegasus_* frames
# that asked for it (a frame-pointer walk at each such allocation).
# Exact and repeatable at a seed.
set -eu
cd "$(dirname "$0")/.."

# Usage is the comment block above, up to the first line of code.
[ $# -ge 1 ] || { sed -n '2,/^[^#]/s/^# \{0,1\}//p' "$0" >&2; exit 2; }

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
