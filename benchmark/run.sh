#!/bin/sh
# The benchmark's single entry point: builds the standalone package in
# release mode from what is in the checkout, then runs it.
#
#   sh benchmark/run.sh                      all workloads, untraced then traced
#   sh benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                            one workload one way; the last line
#                                            of output is the contract's JSON
#   sh benchmark/run.sh --compare A.json B.json
#
# A full run also holds the package to `cargo fmt` and `cargo clippy`:
# it is not a member of the root workspace, so the root CI cannot.
set -eu
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
cargo build --release --offline --quiet --manifest-path "$manifest"
case " $* " in
*" --workload "* | *" --compare "*) ;;
*)
	cargo fmt --manifest-path "$manifest" --check
	cargo clippy --release --offline --quiet --manifest-path "$manifest" --all-targets -- -D warnings
	;;
esac
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/pegasus-benchmark" "$@"
