#!/usr/bin/env bash
# Continuous-integration entry point: the tier-1 test suite plus a fast
# seeded fault-injection smoke test of the headline reliability demo.
#
# Usage: scripts/ci.sh [extra pytest args...]
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

if command -v ruff >/dev/null 2>&1; then
  echo "== ruff lint =="
  ruff check src tests
else
  echo "== ruff lint == (skipped: ruff not installed)"
fi

echo
echo "== tier-1 test suite =="
python -m pytest -x -q "$@" tests/

echo
echo "== seeded fault smoke (reliable recovery must stay bit-exact) =="
python -m repro faults --seed 7 --drop 0.01 --corrupt 0.002 --windows 1

echo
echo "== seeded fault smoke (no-retry must produce the watchdog diagnostic) =="
python -m repro faults --seed 7 --drop 0.02 --windows 1 --no-retry

echo
echo "== crash-recovery smoke (mid-run node death must self-heal bit-exact) =="
python -m repro faults --crash 1@auto | tee fault_recovery_report.txt

echo
echo "== crash-recovery smoke (no-recover must fail with a structured error) =="
python -m repro faults --crash 1@auto --no-recover | tee -a fault_recovery_report.txt

echo
echo "== traced smoke (Chrome trace JSON must validate against the schema) =="
python -m repro trace /tmp/trace_smoke.json --windows 1
python - <<'PY'
import json

from repro.obs.schema import assert_valid, validate_chrome_trace

with open("/tmp/trace_smoke.json") as fh:
    obj = json.load(fh)
assert_valid(validate_chrome_trace(obj), "trace smoke")
print(f"trace smoke: {len(obj['traceEvents'])} events validate")
PY

echo
echo "== backend cross-validation gate (cheap tiers within 5% of DES) =="
python -m repro backend --crossval

echo
echo "== fault-campaign smoke (bit-exact, bounded slowdown, no false evictions) =="
python -m repro campaign --smoke --out benchmarks/out

echo
echo "== topology scoreboard smoke (every fabric within 10% of its DES) =="
python -m repro pfpp --topology all --crossval

echo
echo "== mixed-precision tuning smoke (gated search must converge) =="
python -m repro tune-precision --smoke --out benchmarks/out

echo
echo "== machine-readable benchmarks (schema'd BENCH_*.json) =="
python -m pytest -q -p no:cacheprovider --benchmark-disable \
  benchmarks/bench_fig02_logp.py \
  benchmarks/bench_fig08_globalsum.py \
  benchmarks/bench_fig09_coupled.py \
  benchmarks/bench_collectives.py \
  benchmarks/bench_service_throughput.py \
  benchmarks/bench_backend.py \
  benchmarks/bench_straggler.py \
  benchmarks/bench_topology_pfpp.py \
  benchmarks/bench_precision.py

python - <<'PY'
from repro.obs.bench import read_bench

record = read_bench("benchmarks/out/BENCH_topology.json")
rows = record["data"]["rows"]
gate = record["data"]["crossval_gate"]
worst = max(record["model_error"].values())
assert worst <= gate, f"topology crossval {worst:.1%} exceeds {gate:.0%}"
print(f"BENCH_topology.json validates: {len(rows)} rows, worst crossval {worst:.2%}")

record = read_bench("benchmarks/out/BENCH_precision.json")
data = record["data"]
assert data["wire"]["reduction"] >= data["reduction_gate"], (
    f"wire-byte reduction {data['wire']['reduction']:.0%} below "
    f"{data['reduction_gate']:.0%}"
)
for topo, shift in data["pfpp_shift"].items():
    assert shift["speedup_ps"] > 1.0, f"{topo}: no Pfpp,ps gain from tuned wire"
print(
    f"BENCH_precision.json validates: {data['n_evaluations']} evaluations, "
    f"{data['wire']['reduction']:.0%} wire-byte reduction, "
    f"Pfpp,ps x{min(s['speedup_ps'] for s in data['pfpp_shift'].values()):.2f}"
    "..."
    f"x{max(s['speedup_ps'] for s in data['pfpp_shift'].values()):.2f}"
)
PY

echo
echo "== perfbench pinned references (tiny; DES events, digests, virtual time) =="
for workload in coupled_production pfpp_des lossy_coupling ensemble_drain; do
  for seed in 1 2; do
    python3 perfbench/run.py --workload "$workload" --seed "$seed" \
      --size tiny --seconds 1 --trace 0 >/dev/null
    echo "perfbench $workload seed $seed: pinned checks pass"
  done
done

echo
echo "== chaos smoke (SIGKILL'd workers + service: nothing lost, bit-exact) =="
python -m repro service --chaos --seed 0 --jobs 12 --workers 4 --max-wall 45

echo
echo "ci.sh: all checks passed"
