"""Self-test of the benchmark, run from the root of a checkout::

    python3 perfbench/selftest.py

It runs every workload at tiny size and checks that

* the printed metric names are exactly those of ``BENCHMARK.json``
  (end-to-end with ``--trace 0``, per-layer with ``--trace 1``) and every
  output check passes;
* a ``compute_g_terms`` slowed from outside (a sleep wrapper installed
  by this file, not in ``src/``) moves ``coupled_production``'s
  ``op_s.p50`` past its bound, while ``pfpp_des``, which never calls it,
  stays inside the bound;
* corrupting one pinned reference value makes the command fail;
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  command exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT = HERE / "out" / "selftest"

#: Seconds slept before every ``compute_g_terms`` call in the slowed
#: runs, about the kernel's own time per call on the tiny grid.
SLOW_S = 1e-3


def run_bench(*args: str, child: tuple = (), cwd=ROOT, seconds="2") -> tuple:
    """Run the benchmark; returns (exit code, parsed last line or None)."""
    cmd = [sys.executable, *child] if child else [sys.executable, "perfbench/run.py"]
    cmd += ["--seed", "1", "--seconds", seconds, "--size", "tiny", *args]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def check_names(failures: list) -> None:
    for spec in SPEC["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, res = run_bench("--workload", spec["name"], "--trace", str(trace))
            want = [m["name"] for m in SPEC[key]]
            where = f"{spec['name']} --trace {trace}"
            if code != 0 or res is None or not res["correct"]:
                failures.append(f"{where}: exit {code}, result {res}")
            elif list(res["metrics"]) != want:
                failures.append(f"{where}: metrics {list(res['metrics'])} != {want}")
            print(f"names {where}: exit {code}", flush=True)


def check_slowed_kernel(failures: list) -> None:
    bound = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}["op_s.p50"]
    child = (str(pathlib.Path(__file__)), "--slow-g-terms")
    for workload, should_move in (("coupled_production", True), ("pfpp_des", False)):
        _, base = run_bench("--workload", workload, seconds="4")
        _, slow = run_bench("--workload", workload, child=child, seconds="4")
        ratio = slow["metrics"]["op_s.p50"]["value"] / base["metrics"]["op_s.p50"]["value"]
        moved = ratio > 1.0 + bound
        print(f"slowed compute_g_terms: {workload} op_s.p50 x{ratio:.3f} "
              f"(bound {bound:.0%})", flush=True)
        if moved != should_move:
            failures.append(f"slowed kernel: {workload} op_s.p50 x{ratio:.3f}, "
                            f"expected {'past' if should_move else 'within'} bound")


def check_corrupt_reference(failures: list) -> None:
    refs = json.loads((HERE / "reference.json").read_text())
    key = "coupled_production/tiny/1"
    if key not in refs:
        failures.append(f"reference.json has no pins for {key}")
        return
    refs[key]["cg_iters"] += 1
    OUT.mkdir(parents=True, exist_ok=True)
    bad = OUT / "corrupt_reference.json"
    bad.write_text(json.dumps(refs))
    code, res = run_bench("--workload", "coupled_production", "--reference", str(bad))
    print(f"corrupted pin: exit {code}", flush=True)
    if code == 0 or res is None or res["correct"]:
        failures.append(f"corrupted pin accepted: exit {code}, result {res}")


def check_without_sources(failures: list) -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
    code, res = run_bench("--workload", "coupled_production", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    print(f"without sources: exit {code}", flush=True)
    if code == 0 or res is not None:
        failures.append(f"ran without sources: exit {code}, result {res}")


def slowed_child(argv: list) -> int:
    """Run the benchmark with ``compute_g_terms`` slowed by a sleep."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run
    import repro.gcm.timestepper as timestepper

    original = timestepper.compute_g_terms

    def slowed(*args, **kwargs):
        time.sleep(SLOW_S)
        return original(*args, **kwargs)

    timestepper.compute_g_terms = slowed
    return run.main(argv)


def main() -> int:
    failures: list = []
    check_names(failures)
    check_slowed_kernel(failures)
    check_corrupt_reference(failures)
    check_without_sources(failures)
    shutil.rmtree(OUT, ignore_errors=True)
    for f in failures:
        print(f"FAIL: {f}")
    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--slow-g-terms":
        sys.exit(slowed_child(sys.argv[2:]))
    sys.exit(main())
