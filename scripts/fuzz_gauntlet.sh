#!/usr/bin/env sh
# The hostile-input gauntlet: runs the fuzz-and-fault fronts from
# crates/hostile against fixed seeds. Any oracle violation panics with a
# one-line (seed, front, step) triple; reproduce it with
#   cargo run --release -p pegasus-hostile --bin fuzz-gauntlet -- \
#       --front <front> --seed <seed>
# and see docs/HARDENING.md for how to narrow to the single step.
#
# Usage:
#   scripts/fuzz_gauntlet.sh --smoke   # CI budget, fixed seeds:
#                                      #   wire   6000 streams (1-3
#                                      #          mutations each, >10k
#                                      #          total mutations)
#                                      #   disk   400 hostile images
#                                      #   control 300 QoS-loop walks
#                                      # (the nemesis-storm preset's
#                                      # seeds run in the scenario
#                                      # crate's determinism test)
#   scripts/fuzz_gauntlet.sh --deep    # 10x budgets, three seeds
set -eu
cd "$(dirname "$0")/.."

MODE="${1:---smoke}"

cargo build --release -p pegasus-hostile --bin fuzz-gauntlet
BIN=target/release/fuzz-gauntlet

case "$MODE" in
--smoke)
    # Fixed seeds so CI failures are immediately reproducible; two
    # seeds catch seed-shaped luck without blowing the budget.
    "$BIN" --seed 1994
    "$BIN" --seed 2026 --front wire
    "$BIN" --seed 2026 --front disk
    ;;
--deep)
    for SEED in 1994 2026 31337; do
        "$BIN" --seed "$SEED" --front wire --iters 60000
        "$BIN" --seed "$SEED" --front disk --iters 4000
        "$BIN" --seed "$SEED" --front control --iters 3000
    done
    ;;
*)
    echo "usage: scripts/fuzz_gauntlet.sh [--smoke|--deep]" >&2
    exit 2
    ;;
esac

echo "fuzz_gauntlet.sh: all fronts held ($MODE)"
