#!/usr/bin/env bash
# Runs one workload once per seed and prints the run-to-run spread of every
# end-to-end metric (interquartile range as a share of the median, from
# `statistics.quantiles(values, n=4)`) next to its bound.
#
#   bash perfbench/spread.sh <workload> [runs=10] [first_seed=1]
#
# Run from the repository root. Result lines are kept in
# perfbench/results/<workload>.jsonl (ignored by git).
set -euo pipefail
workload=${1:?usage: spread.sh <workload> [runs] [first_seed]}
runs=${2:-10}
first=${3:-1}
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
cargo build --offline --release --quiet --manifest-path perfbench/Cargo.toml
bin=${CARGO_TARGET_DIR:-perfbench/target}/release/rpq-perfbench
mkdir -p perfbench/results
out=perfbench/results/$workload.jsonl
: > "$out"
for ((seed = first; seed < first + runs; seed++)); do
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null \
        | tail -n 1 | tee -a "$out"
done
python3 - "$out" <<'EOF'
import json, statistics, sys
spec = json.load(open("BENCHMARK.json"))
results = [json.loads(line)["metrics"] for line in open(sys.argv[1]) if line.strip()]
print(f"{len(results)} result lines")
for metric in spec["end_to_end"]:
    name, bound = metric["name"], metric["bound"]
    values = [r[name]["value"] for r in results if name in r]
    if len(values) < 2:
        continue
    q1, _, q3 = statistics.quantiles(values, n=4)
    share = (q3 - q1) / statistics.median(values)
    verdict = "steady" if share <= bound / 3 else "NOISY"
    print(f"{name:<14} n={len(values):<3} median={statistics.median(values):<12.5f} "
          f"q1={q1:<12.5f} q3={q3:<12.5f} spread={share:.4f} bound={bound} {verdict}")
EOF
