#!/bin/sh
# Runs every workload twice on the same build, the two runs of a
# workload back to back, and fails unless they agree: end-to-end
# medians within their bounds, every simulated metric, every count and
# every sim_fingerprint equal. Back to back because this host drifts by
# more than the bounds over the minutes a full run takes. Arguments are
# passed to every run (for example `--seed 7`).
set -eu
cd "$(dirname "$0")/.."
out=benchmark/out
mkdir -p "$out"
status=0
for workload in $(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' BENCHMARK.json); do
	for run in a b; do
		sh benchmark/run.sh --workload "$workload" "$@" >"$out/selfcheck-$workload-$run.log"
		cp "$out/results.json" "$out/selfcheck-$workload-$run.json"
	done
	printf '%s: ' "$workload"
	sh benchmark/run.sh --compare "$out/selfcheck-$workload-a.json" "$out/selfcheck-$workload-b.json" || status=1
done
exit $status
