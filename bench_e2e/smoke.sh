#!/usr/bin/env bash
# Smoke test of the end-to-end benchmark: runs every workload at a
# 20-interval horizon, untraced and traced, and checks that each run
# passes its correctness gate and prints a result line whose metrics are
# exactly the ones BENCHMARK.json names, with their units.
#
#   bash bench_e2e/smoke.sh
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
spec="$(dirname "$bench_dir")/BENCHMARK.json"

for workload in social-solo hotel-cons-32 mixed-100 chaos-32; do
    for trace in 0 1; do
        result="$(bash "$bench_dir/run_e2e.sh" --workload "$workload" \
            --seed 7 --seconds 0 --trace "$trace" --intervals 20 |
            tail -n 1)"
        python3 - "$spec" "$trace" "$result" <<'EOF'
import json, sys
spec = json.load(open(sys.argv[1]))
trace = sys.argv[2] == "1"
result = json.loads(sys.argv[3])
assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
assert result["correct"] is True, "correctness gate failed"
assert result["attempted"] >= 1 and result["failed"] == 0, result
want = {m["name"]: m["unit"]
        for m in spec["per_layer" if trace else "end_to_end"]}
got = {k: v["unit"] for k, v in result["metrics"].items()}
assert got == want, f"metrics differ from BENCHMARK.json: {got} vs {want}"
for name, m in result["metrics"].items():
    assert isinstance(m["value"], (int, float)), name
EOF
        echo "ok: $workload trace=$trace"
    done
done
