#!/usr/bin/env sh
# Re-records every criterion bench of rpq-bench into its BENCH_<name>.json
# artifact at the workspace root, in one session on one machine. Each
# artifact carries a "host" entry (nproc, CPU model, date) written by the
# vendored criterion stub, so a figure can always be traced to its hardware.
#
# Usage: scripts/bench_all.sh
# CRITERION_MEASURE_MS sets the per-benchmark time budget (default here
# 1000 ms; a benchmark also stops at 1000 samples). The whole session takes
# about a minute on a 2-core VM. Run it on an otherwise idle machine: the
# artifacts are only as steady as the host.
set -eu
cd "$(dirname "$0")/.."
export CRITERION_MEASURE_MS="${CRITERION_MEASURE_MS:-1000}"

cargo bench -p rpq-bench --no-run
for bench in figure1_classification gadget_families gadget_verification \
  exact_vs_poly combined_complexity scaling approximation_quality \
  obs_overhead resilience_under_updates router; do
  echo "== $bench"
  CRITERION_SAVE="BENCH_$bench.json" cargo bench -q -p rpq-bench --bench "$bench"
done
