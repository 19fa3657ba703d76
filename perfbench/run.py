"""The repository benchmark: one workload, one fresh process, one result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload coupled_production --seed 1 \\
        --seconds 30 --trace 0

Workloads (``workloads.py``; why each was chosen is in ``BENCHMARK.json``):
``coupled_production``, ``pfpp_des``, ``lossy_coupling``,
``ensemble_drain``.  The run repeats closed-loop rounds, each on a system
built afresh (the median build time is ``setup_s``), until another round
would overrun ``--seconds``, checking every round's outputs.

Times are reported in *reference seconds* (``calibrate.py``): every timed
interval is bracketed by a fixed probe that uses nothing of the
repository, and its host seconds are divided by the host's speed factor
from those probes.  This divides out the drift of a shared host's speed
(tens of percent over tens of seconds), and nothing else: the probe is
the same in every revision.  The host seconds are printed and recorded
beside them.

``--trace 0`` prints the end-to-end metrics, measured with no
instrumentation installed.  ``--trace 1`` alternates untraced and traced
rounds: traced rounds wrap each layer's public functions (``layers.py``)
and give the per-layer self times and counts; the untraced rounds give
the tracing overhead.  Either way the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``, and a
result record (provenance, headline numbers, virtual-time phase split,
host-time table) is written under ``perfbench/out/``; the traced run
also writes a Chrome trace-event file there.

Output checks: for seeds pinned in ``reference.json`` every pinned value
(state digests, virtual times and phase split, CG iterations, DES
events, packet and fault counters, DES quotes, member digests) must
match exactly; for other seeds the invariants hold (finite fields, CG
converged, every job completed).  A failed check fails its op, and the
command exits 1.  ``--record`` stores this run's pinned values for its
seed instead of checking them.

End-to-end metrics (every workload):

* ``setup_s`` -- median reference seconds to build the workload's system;
* ``peak_rss_mb`` -- peak resident set of the benchmark process;
* ``ok_frac`` -- ops that passed their checks / ops attempted;
* ``op_s.p50`` -- median reference seconds per op (coupling window, cold
  PFPP sweep, or member turnaround);
* ``op_s.tail`` -- the highest percentile with at least ten samples
  beyond it (the median when there are fewer than 20 samples); the
  percentile and sample count are printed and recorded.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pathlib
import platform
import resource
import subprocess
import sys
import time
import traceback

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
    ("op_s.p50", "s"),
    ("op_s.tail", "s"),
)

#: Time metrics are seconds per traced round; counts are those of the
#: first traced round (exact and repeatable for a given seed).
PER_LAYER = (
    ("gcm.g_terms.self_s", "s"),
    ("gcm.physics.self_s", "s"),
    ("gcm.cg.self_s", "s"),
    ("gcm.step.self_s", "s"),
    ("gcm.coupler.self_s", "s"),
    ("gcm.cg.iters", "count"),
    ("gcm.flops", "count"),
    ("gcm.host_flops_per_s", "1/s"),
    ("parallel.exchange.self_s", "s"),
    ("parallel.exchange.calls", "count"),
    ("parallel.regrid.self_s", "s"),
    ("parallel.runtime.self_s", "s"),
    ("parallel.des_exchange.self_s", "s"),
    ("backend.quote.calls", "count"),
    ("backend.quote.self_s", "s"),
    ("backend.des.simulations", "count"),
    ("backend.des.hit_ratio", "frac"),
    ("precision.codec.calls", "count"),
    ("precision.codec.self_s", "s"),
    ("hardware.cluster_build_s", "s"),
    ("sim.run.self_s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("network.packets_forwarded", "count"),
    ("network.hops_per_packet", "count"),
    ("niu.packets_sent", "count"),
    ("niu.reliable.retransmissions", "count"),
    ("niu.reliable.nacks_sent", "count"),
    ("niu.reliable.useful_frac", "frac"),
    ("faults.injected_drops", "count"),
    ("faults.injected_corruptions", "count"),
    ("faults.router_crc_drops", "count"),
    ("service.journal.appends", "count"),
    ("service.journal.self_s", "s"),
    ("service.spawn.self_s", "s"),
    ("service.poll.self_s", "s"),
    ("service.idle_s", "s"),
    ("service.queue_wait_s.p50", "s"),
    ("service.run_s.p50", "s"),
    ("service.retries", "count"),
    ("trace.coverage", "frac"),
    ("trace.overhead_frac", "frac"),
)

#: Span layers whose self times make up the GCM step on the lockstep
#: runtime (``trace.coverage``).
COVERAGE_LAYERS = ("gcm", "parallel", "backend")


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    return float(np.percentile(values, q))


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten of ``n`` samples beyond it,
    never below the median."""
    return max(50.0, 100.0 * (1.0 - 10.0 / n)) if n else 50.0


def in_span(tracer, name: str, fn):
    """``fn()``, inside a root span of ``tracer`` when there is one."""
    return fn() if tracer is None else tracer.call(name, fn, (), {})


def provenance(workload, seed: int) -> dict:
    def git(*args):
        try:
            out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                 text=True, timeout=20)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    rev = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--untracked-files=no")
    config = workload.config()
    return {
        "git_revision": rev,
        "git_dirty": None if dirty is None else bool(dirty),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "config": config,
        "config_sha256": hashlib.sha256(
            json.dumps({"workload": workload.name, **config},
                       sort_keys=True).encode()
        ).hexdigest(),
    }


def service_latencies(tracer) -> tuple:
    """Median queue wait (drain start -> first spawn) and run time
    (last spawn -> completion) of the traced drains' jobs."""
    starts = {rid: start for name, start, _e, _s, _p, rid in tracer.spans
              if name == "service.serve"}
    waits, runs = [], []
    spawned: dict = {}
    for event, job_id, t, rid in tracer.service_events:
        key = (rid, job_id)
        if event == "spawned":
            if key not in spawned and rid in starts:
                waits.append(t - starts[rid])
            spawned[key] = t
        elif event == "completed" and key in spawned:
            runs.append(t - spawned[key])
    med = lambda v: float(np.median(v)) if v else 0.0
    return med(waits), med(runs)


def layer_metrics(tracer, first: dict, rounds: int, overhead: float,
                  work_s: float) -> dict:
    """The per-layer metrics of a traced run; ``work_s`` is the host time
    of its traced setups and rounds, less the calibration probes."""
    n = max(rounds, 1)
    per_round = lambda name: tracer.self_s.get(name, 0.0) / n
    counts = tracer.counts
    fc, fcalls = first.get("counts", {}), first.get("calls", {})
    ratio = lambda a, b: a / b if b else 0.0
    wait_p50, run_p50 = service_latencies(tracer)
    covered = sum(
        per_round(name) for name in tracer.self_s
        if name.split(".")[0] in COVERAGE_LAYERS
    )
    lookups = counts.get("backend.des.lookups", 0)
    values = {
        "gcm.g_terms.self_s": per_round("gcm.g_terms"),
        "gcm.physics.self_s": per_round("gcm.physics"),
        "gcm.cg.self_s": per_round("gcm.cg"),
        "gcm.step.self_s": per_round("gcm.step"),
        "gcm.coupler.self_s": per_round("gcm.coupler"),
        "gcm.cg.iters": fc.get("gcm.cg.iters", 0),
        "gcm.flops": fc.get("gcm.flops", 0),
        "gcm.host_flops_per_s": ratio(counts.get("gcm.flops", 0),
                                      tracer.total_s.get("gcm.step", 0.0)),
        "parallel.exchange.self_s": per_round("parallel.exchange"),
        "parallel.exchange.calls": fcalls.get("parallel.exchange", 0),
        "parallel.regrid.self_s": per_round("parallel.regrid"),
        "parallel.runtime.self_s": per_round("parallel.runtime"),
        "parallel.des_exchange.self_s": per_round("parallel.des_exchange"),
        "backend.quote.calls": fcalls.get("backend.quote", 0),
        "backend.quote.self_s": per_round("backend.quote"),
        "backend.des.simulations": fc.get("backend.des.simulations", 0),
        "backend.des.hit_ratio": (
            1.0 - ratio(counts.get("backend.des.simulations", 0), lookups)
            if lookups else 0.0
        ),
        "precision.codec.calls": fcalls.get("precision.codec", 0),
        "precision.codec.self_s": per_round("precision.codec"),
        "hardware.cluster_build_s": tracer.total_s.get("hardware.cluster_build", 0.0) / n,
        "sim.run.self_s": per_round("sim.run"),
        "sim.events": fc.get("sim.events", 0),
        "sim.events_per_s": ratio(counts.get("sim.events", 0),
                                  tracer.total_s.get("sim.run", 0.0)),
        "network.packets_forwarded": fc.get("network.packets_forwarded", 0),
        "network.hops_per_packet": ratio(counts.get("network.packets_forwarded", 0),
                                         counts.get("network.packets_injected", 0)),
        "niu.packets_sent": fc.get("niu.packets_sent", 0),
        "niu.reliable.retransmissions": fc.get("niu.reliable.retransmissions", 0),
        "niu.reliable.nacks_sent": fc.get("niu.reliable.nacks_sent", 0),
        "niu.reliable.useful_frac": ratio(
            counts.get("niu.reliable.data_sent", 0)
            - counts.get("niu.reliable.retransmissions", 0),
            counts.get("niu.reliable.data_sent", 0),
        ),
        "faults.injected_drops": fc.get("faults.injected_drops", 0),
        "faults.injected_corruptions": fc.get("faults.injected_corruptions", 0),
        "faults.router_crc_drops": fc.get("faults.router_crc_drops", 0),
        "service.journal.appends": fcalls.get("service.journal", 0),
        "service.journal.self_s": per_round("service.journal"),
        "service.spawn.self_s": per_round("service.spawn"),
        "service.poll.self_s": per_round("service.poll"),
        "service.idle_s": per_round("service.serve"),
        "service.queue_wait_s.p50": wait_p50,
        "service.run_s.p50": run_p50,
        "service.retries": fc.get("service.retries", 0),
        "trace.coverage": ratio(covered, work_s / n),
        "trace.overhead_frac": overhead,
    }
    return values


def run(args) -> int:
    import workloads
    from calibrate import HostClock
    from layers import Patcher, Tracer, self_time_table

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}.{args.size}.seed{args.seed}.trace{args.trace}"
    cls = workloads.WORKLOADS[args.workload]
    kwargs = {}
    if cls is workloads.EnsembleDrain:
        kwargs["workdir"] = out_dir / f"{tag}.service"
    clock = HostClock()
    wl = cls(args.seed, clock, tiny=args.size == "tiny", **kwargs)

    ref_key = f"{args.workload}/{args.size}/{args.seed}"
    ref_path = pathlib.Path(args.reference)
    references = json.loads(ref_path.read_text()) if ref_path.exists() else {}
    reference = None if args.record else references.get(ref_key)

    tracer = patcher = None
    if args.trace:
        tracer = Tracer()
        patcher = Patcher(tracer)

    samples, traced_s, untraced_s, errors, setup_s = [], [], [], [], []
    host_samples, host_setup_s = [], []
    traced_work_s = 0.0
    attempted = failed = traced_rounds = rounds = 0
    first: dict = {}
    walls: list = []
    deadline = time.perf_counter() + args.seconds
    try:
        while rounds < 2 or time.perf_counter() + float(np.median(walls)) <= deadline:
            gc.collect()
            traced = tracer is not None and rounds % 2 == 1
            w0 = time.perf_counter()
            try:
                if traced:
                    patcher.install()
                    tracer.begin_round(rounds)
                try:
                    _, setup_host, setup_ref = clock.timed(
                        lambda: in_span(tracer if traced else None, "setup", wl.setup))
                    host_setup_s.append(setup_host)
                    setup_s.append(setup_ref)
                    t1, p1 = time.perf_counter(), clock.probe_s
                    ops = in_span(tracer if traced else None, "round", wl.round)
                    # the round's host seconds, less the probes inside it
                    round_s = time.perf_counter() - t1 - (clock.probe_s - p1)
                finally:
                    if traced:
                        tracer.end_round()
                        patcher.remove()
            except Exception:
                # the system under test raised: that op failed, and the
                # state it leaves behind is not worth measuring further
                attempted += 1
                failed += 1
                errors.append(f"round {rounds} raised:\n{traceback.format_exc()}")
                break
            if traced:
                traced_rounds += 1
                traced_s.append(round_s)
                traced_work_s += setup_host + round_s
                if not first:
                    first = {"counts": dict(tracer.counts), "calls": dict(tracer.calls)}
            else:
                untraced_s.append(round_s)
                host_samples.extend(host for host, _ref in ops)
                samples.extend(ref for _host, ref in ops)
            round_errors = wl.check(reference)
            walls.append(time.perf_counter() - w0)
            attempted += len(ops)
            if round_errors or not np.isfinite(ops).all():
                failed += len(ops)
                errors.extend(round_errors or [f"round {rounds}: op did not finish"])
            rounds += 1
    finally:
        wl.close()

    n = len(samples)
    q_tail = tail_percentile(n)
    samples = samples or [float("nan")]  # a run whose first round raised
    op_p50 = percentile(samples, 50.0)
    host_samples = host_samples or [float("nan")]
    host = {
        "setup_s": float(np.median(host_setup_s)) if host_setup_s else float("nan"),
        "op_s.p50": percentile(host_samples, 50.0),
        "op_s.tail": percentile(host_samples, q_tail),
        "speed_factor.p50": clock.median_factor(),
        "probe_s": clock.probe_s,
    }
    e2e = {
        "setup_s": float(np.median(setup_s)) if setup_s else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (attempted - failed) / attempted,
        "op_s.p50": op_p50,
        "op_s.tail": percentile(samples, q_tail),
    }
    record = {
        "workload": args.workload,
        "size": args.size,
        "trace": args.trace,
        "provenance": provenance(wl, args.seed),
        "seconds": args.seconds,
        "rounds": rounds,
        "op_samples": n,
        "op_s.tail_percentile": q_tail,
        "end_to_end": e2e,
        "host_seconds": host,
        "setup_samples_s": setup_s,
        "speed_factors": [f for _t, f in clock.samples],
        "headline": wl.headline(host["op_s.p50"]) if n else {},
        "pins": wl.pins,
        "errors": errors,
    }

    print(f"# {args.workload} ({args.size}) seed={args.seed} rounds={rounds} "
          f"ops={attempted} failed={failed}")
    print(f"# op_s.tail is p{q_tail:.1f} of {n} untraced op samples")
    print(f"# host seconds: setup {host['setup_s']:.4f}, op p50 {host['op_s.p50']:.4f}, "
          f"op tail {host['op_s.tail']:.4f}; median speed factor "
          f"{host['speed_factor.p50']:.3f} over {len(clock.samples)} probes "
          f"({host['probe_s']:.2f} s)")
    print("# headline figures are in host seconds")
    for key, val in record["headline"].items():
        print(f"# headline {key} = {val}")
    split = wl.pins.get("phase_split")
    if split:
        print("# virtual-time phase split (s) after the pinned window:")
        for comp, phases in split.items():
            if isinstance(phases, dict):
                for phase, kinds in phases.items():
                    row = " ".join(f"{k[:-2]}={v:.6g}" for k, v in kinds.items())
                    print(f"#   {comp}.{phase}: {row}")
            else:
                print(f"#   {comp} = {phases:.6g}")
    for err in errors:
        print(f"# CHECK FAILED: {err}")

    metrics = {}
    if tracer is not None:
        traced_p50 = float(np.median(traced_s)) if traced_s else 0.0
        base = float(np.median(untraced_s)) if untraced_s else 0.0
        overhead = (traced_p50 - base) / base if base else 0.0
        layer = layer_metrics(tracer, first, traced_rounds, overhead, traced_work_s)
        table = self_time_table(tracer, traced_rounds)
        record["per_layer"] = layer
        record["host_time_table"] = [
            {"span": s, "self_s": a, "total_s": b, "calls": c} for s, a, b, c in table
        ]
        record["traced_round_s"] = traced_s
        record["untraced_round_s"] = untraced_s
        trace_path = out_dir / f"{tag}.trace.json"
        tracer.save(str(trace_path))
        print(f"# host self time per traced round ({traced_rounds} rounds), "
              f"trace: {trace_path.relative_to(ROOT)}")
        print(f"#   {'span':28s} {'self s':>10s} {'total s':>10s} {'calls':>10s}")
        for span, a, b, c in table:
            print(f"#   {span:28s} {a:10.4f} {b:10.4f} {c:10.1f}")
        print(f"# tracing overhead: traced {traced_p50:.4f} s vs untraced {base:.4f} s "
              f"per round ({overhead:+.1%})")
        for name, unit in PER_LAYER:
            metrics[name] = {"value": layer[name], "unit": unit}
    else:
        for name, unit in END_TO_END:
            metrics[name] = {"value": e2e[name], "unit": unit}
    for name, m in metrics.items():
        print(f"# {name} = {m['value']} {m['unit']}")

    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    if args.record and not failed:
        references[ref_key] = wl.pins
        ref_path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
        print(f"# recorded pinned values for {ref_key}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["coupled_production", "pfpp_des", "lossy_coupling",
                            "ensemble_drain"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every workload for the self-test")
    p.add_argument("--reference", default=str(HERE / "reference.json"),
                   help="pinned-values file")
    p.add_argument("--record", action="store_true",
                   help="store this seed's pinned values instead of checking")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
