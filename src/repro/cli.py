"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``report [sections...]`` — regenerate the paper's headline tables
  (Fig. 2, Fig. 10, Fig. 12, Section 5.3) from the simulation/models.
* ``run`` — a short ocean integration with live diagnostics.
* ``microbench`` — the network microbenchmarks on the DES cluster.
* ``pfpp`` — the interconnect study (Fig. 12 + verdicts);
  ``--best-collectives`` adds the autotuned-gsum ceiling at N=16/64/256.
* ``collectives`` — autotuned collective plans over the Arctic fabric
  (``--sweep`` for size/algorithm crossover tables, ``--crossval`` for
  a packet-level DES check of the winning schedule).
* ``trace`` — run the coupled DES demo with the tracer on and write a
  Chrome trace-event JSON (open in chrome://tracing or
  https://ui.perfetto.dev) covering the fabric, NIUs, DES processes and
  both isomorphs' BSP clocks.
* ``faults`` — coupled run under a seeded fault plan (``--seed``,
  ``--drop``, ``--corrupt``); bit-exact recovery via the reliable
  layer, or the watchdog deadlock diagnostic with ``--no-retry``.
  With ``--crash NODE@TIME`` (repeatable) a node fail-stops mid-run:
  the self-healing runtime detects it, rolls back to the last
  coordinated checkpoint and finishes bit-exact (``--no-recover``
  shows the structured failure instead).
* ``service`` — the crash-safe ensemble scenario service.  By default
  runs a small in-process sweep demo; ``--serve --dir D`` runs the
  journal-backed serving loop on a root directory (``--drain`` exits
  once every admitted job is terminal); ``--chaos`` runs the seeded
  SIGKILL campaign against a real service subprocess and audits that
  every job completed bit-exact or was explicitly quarantined.
* ``backend`` — the fidelity-switchable communication backend:
  ``--crossval`` runs the des/analytic/hybrid cross-validation gate
  (fig02/fig08/fig09 workloads, ≤5% band, bit-exact GCM digests),
  ``--sweep`` the Fig. 11-style large-N Pfpp sweep, ``--info`` the
  tier descriptions.

Model-running subcommands take one ``--backend {des,analytic,hybrid}``
flag selecting the communication fidelity tier (see
``docs/backends.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

#: Mirror of :data:`repro.backend.BACKEND_NAMES` (kept literal so the
#: parser builds without importing the runtime).
_BACKEND_CHOICES = ("des", "analytic", "hybrid")


def _add_backend_flag(parser: argparse.ArgumentParser, default=None) -> None:
    """The one ``--backend`` flag shared by model-running subcommands."""
    parser.add_argument(
        "--backend",
        choices=_BACKEND_CHOICES,
        default=default,
        help="communication fidelity tier (see docs/backends.md)",
    )


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.core.report import render_report

    keys = args.sections or None
    try:
        print(render_report(keys))
    except KeyError as e:
        print(e, file=sys.stderr)
        return 2
    return 0


def _cmd_backend(args: argparse.Namespace) -> int:
    """Backend gate: cross-validation, large-N sweep, or tier info."""
    import json

    if args.crossval:
        from repro.backend import format_report, run_crossval

        report = run_crossval(tolerance=args.tolerance, windows=args.windows)
        print(format_report(report))
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=1, sort_keys=True)
            print(f"wrote {args.json}")
        return 0 if report["passed"] else 1

    if args.sweep:
        from repro.backend import format_sweep, large_sweep

        tier = args.backend or "analytic"
        report = large_sweep(n_values=tuple(args.nodes), backend=tier)
        print(format_sweep(report))
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=1, sort_keys=True)
            print(f"wrote {args.json}")
        return 0

    from repro.backend import resolve_backend

    for name in _BACKEND_CHOICES:
        d = resolve_backend(name).describe()
        print(f"{name:10s} {json.dumps(d, sort_keys=True, default=str)}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.gcm import diagnostics as diag
    from repro.gcm.ocean import ocean_model

    tier = args.backend
    model = ocean_model(
        nx=args.nx, ny=args.ny, nz=args.nz, px=args.px, py=args.py, dt=args.dt,
        backend=tier,
    )
    print(
        f"ocean {args.nx}x{args.ny}x{args.nz} on {model.decomp.n_ranks} ranks; "
        f"{args.steps} steps of dt={args.dt}s"
        + (f"; {tier} backend" if tier else "")
    )
    for k in range(args.steps):
        s = model.step()
        if (k + 1) % max(args.steps // 8, 1) == 0:
            print(
                f"  step {k + 1:4d}: Ni={s.ni:3d} "
                f"KE={diag.total_kinetic_energy(model):.3e} "
                f"CFL={diag.max_cfl(model):.3f}"
            )
    if not diag.is_finite(model):
        print("model state went non-finite", file=sys.stderr)
        return 1
    summ = model.runtime.summary()
    print(
        f"virtual elapsed {summ['elapsed'] * 1e3:.1f} ms; sustained "
        f"{summ['sustained_flops'] / 1e6:.1f} MFlop/s"
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Traced coupled demo run -> Chrome trace JSON + telemetry summary."""
    from repro.obs.capture import save_trace, traced_coupled_run

    tier = args.backend
    print(
        f"tracing coupled demo: {args.windows} coupling window(s) on the "
        "simulated Hyades cluster"
        + (f" ({tier} backend for BSP phase costs)" if tier else "")
    )
    result = traced_coupled_run(windows=args.windows, backend=tier)
    save_trace(result, args.out)
    tr = result["tracer"]
    print(
        f"wrote {args.out}: {tr.n_events} events "
        f"({tr.dropped} dropped past the cap)"
    )
    for cat, n in sorted(tr.category_counts().items()):
        print(f"  {cat:10s} {n}")
    print(
        f"engine: {result['engine_events']} DES events, "
        f"{result['engine_time_s'] * 1e3:.3f} ms virtual; "
        f"coupler wire time {result['des_elapsed_s'] * 1e6:.1f} us"
    )
    for comp in ("atm", "ocn"):
        rec = result[f"{comp}_metrics"]
        for phase, tot in sorted(rec.totals().items()):
            print(
                f"  {comp}/{phase}: compute {tot['compute_s'] * 1e3:.2f} ms, "
                f"exchange {tot['exchange_s'] * 1e3:.2f} ms, "
                f"gsum {tot['gsum_s'] * 1e3:.2f} ms "
                f"({tot['n_exchanges']} exchanges, {tot['n_gsums']} gsums)"
            )
    return 0


def _cmd_century(_args: argparse.Namespace) -> int:
    """The Section 6 projection: a century-long coupled run."""
    from repro.core.constants import VALIDATION
    from repro.core.perf_model import DSPhaseParams, PerformanceModel, PSPhaseParams
    from repro.core.constants import ATM_PS_PARAMS, DS_PARAMS

    pm = PerformanceModel(
        PSPhaseParams.from_ref(ATM_PS_PARAMS), DSPhaseParams.from_ref(DS_PARAMS)
    )
    year = pm.trun(VALIDATION.nt, VALIDATION.ni)
    print(f"one model year (2.8125 deg atmosphere): {year / 60:.0f} minutes")
    print(f"a century:                              {100 * year / 86400:.1f} days")
    print('paper, Section 6: "a century long synchronous climate simulation ...')
    print(' can be completed within a two week period."')
    return 0


def _parse_crash(spec: str) -> tuple:
    """Parse a ``--crash`` spec: ``NODE@TIME``, ``NODE@auto`` or ``NODE``."""
    node, _, when = spec.partition("@")
    try:
        return int(node), (None if when in ("", "auto") else float(when))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected NODE@TIME (e.g. '1@0.004' or '1@auto'), got {spec!r}"
        ) from exc


def _cmd_crash(args: argparse.Namespace) -> int:
    """Mid-run node crash: self-healing recovery (or its absence)."""
    from repro.faults import run_crash_recovery_demo

    reliable = not args.no_retry
    primary, extra = args.crash[0], tuple(args.crash[1:])
    when = "auto" if primary[1] is None else f"t={primary[1]:.6g}s"
    print(
        f"crash plan: node {primary[0]} fail-stops at {when}"
        + (f" (+{len(extra)} more)" if extra else "")
        + f"; {args.windows} coupling window(s), "
        + (
            f"recovery ON (checkpoint every {args.interval} window(s), "
            f"{args.spares} spare(s))"
            if args.recover
            else "recovery OFF ("
            + ("reliable delivery" if reliable else "raw VI")
            + ")"
        )
    )
    res = run_crash_recovery_demo(
        crash_node=primary[0],
        crash_time=primary[1],
        extra_crashes=extra,
        windows=args.windows,
        recover=args.recover,
        reliable=reliable,
        checkpoint_interval=args.interval,
        n_spares=args.spares,
    )
    if res.error is not None:
        print(f"run died with structured {res.error_type}:")
        print(f"  {res.error}")
        # Without recovery the structured failure *is* the demo.
        return 0 if not args.recover else 1
    lat = res.detection_latency
    print(
        f"detected: node {res.crash_node} declared dead "
        + (f"{lat * 1e6:.0f} us after the crash" if lat is not None else "")
    )
    for rank, old, new in res.remaps:
        print(f"  rank {rank}: node {old} -> node {new}")
    print(
        f"rolled back to checkpoint window {res.restored_window}; "
        f"recomputed to window {res.windows}"
    )
    print(
        f"overhead (virtual): checkpoint tax {res.checkpoint_tax * 1e3:.2f} ms, "
        f"rollback {res.rollback_cost * 1e3:.2f} ms, "
        f"recompute {res.recompute_cost * 1e3:.2f} ms "
        f"(total {res.total_overhead * 1e3:.2f} ms on a "
        f"{res.engine_time_clean * 1e3:.2f} ms run)"
    )
    print(f"coupled state bit-exact vs fault-free run: {res.bit_exact}")
    return 0 if res.bit_exact else 1


def _cmd_faults_hybrid(args: argparse.Namespace) -> int:
    """Hybrid-tier fault demo: faulted windows answered at DES fidelity."""
    from repro.gcm.coupled import coupled_model

    cm = coupled_model(
        nx=16, ny=8, nz_atm=3, nz_ocn=4, px=2, py=2, dt=600.0,
        coupling_interval=2, backend="hybrid",
    )
    be = cm.backends()[0]
    faulted = {0}
    print(
        f"hybrid tier: {args.windows} coupling window(s), "
        f"window(s) {sorted(faulted)} marked faulted"
    )
    for w in range(args.windows):
        cm.step_coupled(faulted=w in faulted)
        print(f"  window {w}: served by the {be.tier} tier")
    stats = be.tier_stats()
    print(
        f"windows per tier: {stats['windows']}; "
        f"cost queries per tier: {stats['queries']}"
    )
    ok = stats["windows"]["des"] == len(faulted & set(range(args.windows)))
    print(f"faulted windows routed to DES: {ok}")
    return 0 if ok else 1


def _cmd_faults(args: argparse.Namespace) -> int:
    """Coupled run under a seeded fault plan: the reliability headline."""
    from repro.faults import run_coupled_fault_demo

    tier = args.backend
    if tier == "analytic":
        print(
            "faults needs a packet-capable tier: use --backend des (packet "
            "fault injection) or --backend hybrid (DES fallback windows)",
            file=sys.stderr,
        )
        return 2
    if tier == "hybrid":
        return _cmd_faults_hybrid(args)
    if args.crash:
        return _cmd_crash(args)
    reliable = not args.no_retry
    print(
        f"fault plan: seed={args.seed} drop={args.drop:.2%} corrupt={args.corrupt:.2%}; "
        f"{args.windows} coupling window(s), "
        f"{'reliable delivery' if reliable else 'raw VI (no retransmits)'}"
    )
    res = run_coupled_fault_demo(
        seed=args.seed,
        drop=args.drop,
        corrupt=args.corrupt,
        windows=args.windows,
        reliable=reliable,
    )
    fc = res.fault_counters
    print(
        f"injected: {fc['injected_drops']} drops, "
        f"{fc['injected_corruptions']} corruptions "
        f"({fc['router_crc_drops']} caught by router CRC)"
    )
    if res.deadlock is not None:
        print("exchange deadlocked (expected without retransmits):")
        print(f"  {res.deadlock}")
        return 0
    pr = res.protocol
    print(
        f"protocol: {pr.get('data_sent', 0)} frames sent, "
        f"{pr.get('retransmissions', 0)} retransmitted, "
        f"{pr.get('acks_sent', 0)} ACKs, {pr.get('nacks_sent', 0)} NACKs"
    )
    print(
        f"wire time: {res.wire_time_clean * 1e6:.1f} us clean -> "
        f"{res.wire_time_faulty * 1e6:.1f} us faulty "
        f"({res.overhead_pct:+.1f}% recovery overhead)"
    )
    print(f"coupled state bit-exact vs fault-free run: {res.bit_exact}")
    if args.links:
        for name, dropped, corrupted in res.per_link:
            print(f"  {name}: dropped={dropped} corrupted={corrupted}")
    return 0 if res.bit_exact else 1


def _cmd_pfpp(args: argparse.Namespace) -> int:
    from repro.core.pfpp import fig12_table

    if getattr(args, "topology", None):
        return _pfpp_topology_scoreboard(args)
    tier = args.backend
    if tier is not None:
        from repro.backend import format_sweep, large_sweep

        print(format_sweep(large_sweep(n_values=tuple(args.nodes), backend=tier)))
        return 0
    print(f"{'interconnect':20s} {'Pfpp,ps':>10s} {'Pfpp,ds':>10s}")
    for r in fig12_table(from_models=True):
        print(f"{r.name:20s} {r.pfpp_ps / 1e6:9.1f}M {r.pfpp_ds / 1e6:9.2f}M")
    print("(reference compute rates: Fps=50M, Fds=60M flop/s)")
    if getattr(args, "best_collectives", False):
        from repro.core.pfpp import best_collectives_table

        print()
        print("PFPP under best-known collective (autotuned Arctic gsum):")
        print(
            f"{'N':>4s} {'gsum alg':>24s} {'tgsum':>9s} "
            f"{'Pfpp,ps':>10s} {'Pfpp,ds':>10s}"
        )
        for b in best_collectives_table():
            print(
                f"{b.n_nodes:4d} {b.gsum_algorithm:>24s} "
                f"{b.tgsum * 1e6:7.1f}us {b.pfpp_ps / 1e6:9.1f}M "
                f"{b.pfpp_ds / 1e6:9.2f}M"
            )
    return 0


#: default node counts of the cross-architecture scoreboard (the
#: ``--nodes`` default belongs to the --backend sweep, not this mode).
_SCOREBOARD_N = (256, 1024, 4096)
_PFPP_NODES_DEFAULT = (16, 64, 256, 1024, 4096)


def _pfpp_precision_args(args: argparse.Namespace) -> tuple:
    """Resolve ``--precision`` into (label, scoreboard kwargs, note).

    ``tuned`` loads the assignment a previous ``repro tune-precision``
    persisted under ``--out`` (default ``benchmarks/out``); when no
    tuned config exists it falls back to the ``wire32`` preset and says
    so, rather than failing a scoreboard over a missing artifact.
    """
    from repro.precision import PrecisionConfig
    from repro.precision.search import load_tuned_config

    choice = getattr(args, "precision", None) or "all64"
    note = None
    if choice == "tuned":
        tuned = load_tuned_config(getattr(args, "out", None) or "benchmarks/out")
        if tuned is None:
            note = (
                "no tuned config found (run `repro tune-precision` first); "
                "falling back to the wire32 preset"
            )
            config, choice = PrecisionConfig.preset("wire32"), "wire32"
        else:
            config = tuned
    else:
        config = PrecisionConfig.preset(choice)
    return choice, config.scoreboard_args(), note


def _pfpp_topology_scoreboard(args: argparse.Namespace) -> int:
    """``repro pfpp --topology NAME|all``: the cross-architecture
    PFPP scoreboard (analytic tier), optionally DES-cross-validated.

    With ``--precision wire32|tuned`` the all64 baseline rows are
    followed by mixed-precision rows whose exchange/gsum payloads are
    priced at the config's wire itemsizes."""
    from repro.core.pfpp import topology_scoreboard
    from repro.network.errors import TopologyError
    from repro.network.topology import (
        SCOREBOARD_TOPOLOGIES,
        crossvalidate_topology,
        make_topology,
    )

    spec = args.topology.lower()
    names = SCOREBOARD_TOPOLOGIES if spec == "all" else (spec,)
    n_values = (
        tuple(args.nodes)
        if tuple(args.nodes) != _PFPP_NODES_DEFAULT
        else _SCOREBOARD_N
    )
    prec_name, prec_kwargs, prec_note = _pfpp_precision_args(args)
    try:
        rows = topology_scoreboard(topologies=names, n_values=n_values)
        if prec_name != "all64":
            rows = list(rows) + list(
                topology_scoreboard(
                    topologies=names,
                    n_values=n_values,
                    precision=prec_name,
                    **prec_kwargs,
                )
            )
    except TopologyError as exc:
        print(f"pfpp: {exc}", file=sys.stderr)
        return 2
    if prec_note:
        print(f"note: {prec_note}")
    wide = prec_name != "all64"
    print(
        f"{'N':>5s} {'topology':14s} {'grid':>9s} {'gsum alg':>12s} "
        f"{'tgsum':>10s} {'texchxy':>10s} {'texchxyz':>12s} "
        f"{'Pfpp,ps':>10s} {'Pfpp,ds':>10s} {'hops':>4s} {'bisect':>9s}"
        + (f" {'precision':>10s}" if wide else "")
    )
    for r in rows:
        print(
            f"{r.n_nodes:5d} {r.topology:14s} "
            f"{r.grid[0]:>4d}x{r.grid[1]:<4d} {r.gsum_algorithm:>12s} "
            f"{r.tgsum * 1e6:8.1f}us {r.texchxy * 1e6:8.1f}us "
            f"{r.texchxyz * 1e6:10.1f}us {r.pfpp_ps / 1e6:9.1f}M "
            f"{r.pfpp_ds / 1e6:9.2f}M {r.max_hops:4d} "
            f"{r.bisection_bandwidth / 1e9:7.1f}GB"
            + (f" {r.precision:>10s}" if wide else "")
        )
    print(
        "(analytic tier; Pfpp = interconnect ceiling of eqs. 14-15, "
        "global grid weak-scaled past N=256)"
    )
    if wide:
        print(
            "(mixed-precision rows price exchange payloads at the wire "
            "itemsize; DES gsum and the shared-Ethernet mpi-fit gsum are "
            "byte-insensitive — see docs/precision.md)"
        )
    if getattr(args, "crossval", False):
        print()
        print("DES cross-validation at N=16 (pairwise stream per topology):")
        ok = True
        for name in names:
            r = crossvalidate_topology(make_topology(name, 16))
            ok = ok and r["rel_err"] <= 0.10
            print(
                f"  {r['topology']:14s} des={r['des_s'] * 1e6:9.2f}us "
                f"model={r['predicted_s'] * 1e6:9.2f}us "
                f"err={r['rel_err'] * 100:5.2f}%"
            )
        print(f"cross-validation {'PASS' if ok else 'FAIL'} (gate: <=10%)")
        return 0 if ok else 1
    return 0


def _cmd_collectives(args: argparse.Namespace) -> int:
    """Autotuned collective plans: single plan, size sweep, DES check."""
    from repro.collectives import Autotuner, cost_table

    tuner = Autotuner(backend=args.backend)
    if args.sweep:
        sizes = [8, 64, 1024, 8192, 65536, 524288]
        for n in args.nodes:
            table = cost_table(args.op, n, sizes)
            algs = sorted(table)
            print(f"{args.op} at N={n} (us per collective; * = tuner's pick):")
            print(f"{'bytes':>8s} " + " ".join(f"{a:>26s}" for a in algs))
            for i, size in enumerate(sizes):
                best = tuner.plan(args.op, n, size).algorithm
                cells = [
                    f"{table[a][i] * 1e6:25.1f}{'*' if a == best else ' '}"
                    for a in algs
                ]
                print(f"{size:8d} " + " ".join(cells))
        return 0
    plan = tuner.plan(args.op, args.nodes[0], args.nbytes, priority=args.priority)
    print(
        f"{plan.op} N={plan.n} {plan.nbytes}B [{plan.priority.name}]: "
        f"{plan.algorithm} ({plan.n_rounds} rounds, "
        f"{plan.total_messages} messages, {plan.predicted_s * 1e6:.1f} us)"
    )
    for alg, cost in sorted(plan.costs.items(), key=lambda kv: kv[1]):
        mark = "*" if alg == plan.algorithm else " "
        print(f"  {mark} {alg:26s} {cost * 1e6:9.1f} us")
    if args.crossval:
        if plan.n > 16:
            print("crossval: skipped (DES check limited to N<=16)", file=sys.stderr)
            return 2
        cv = tuner.crossvalidate(plan)
        print(
            f"DES replay: {cv['des_s'] * 1e6:.1f} us "
            f"(model {cv['predicted_s'] * 1e6:.1f} us, "
            f"error {cv['rel_err']:.1%})"
        )
    return 0


def _service_config(args: argparse.Namespace):
    from repro.service import ServiceConfig, SupervisorConfig

    return ServiceConfig(
        supervisor=SupervisorConfig(
            max_workers=args.workers,
            heartbeat_timeout_s=args.heartbeat_timeout,
            deadline_s=args.deadline,
            max_attempts=args.max_attempts,
        )
    )


def _cmd_service(args: argparse.Namespace) -> int:
    """Ensemble service: demo sweep, serving loop, or chaos campaign."""
    import pathlib
    import tempfile

    if args.chaos:
        from repro.service import ChaosConfig, run_chaos

        root = pathlib.Path(
            args.dir or tempfile.mkdtemp(prefix="repro-chaos-")
        )
        cfg = ChaosConfig(
            seed=args.seed,
            n_jobs=args.jobs,
            workers=args.workers,
            max_wall_s=args.max_wall if args.max_wall is not None else 120.0,
            heartbeat_timeout_s=args.heartbeat_timeout,
            deadline_s=args.deadline,
            max_attempts=args.max_attempts,
        )
        print(f"chaos campaign in {root}")
        report = run_chaos(root, cfg, echo=print)
        print(report.render())
        return 0 if report.ok else 1

    if args.serve:
        if not args.dir:
            print("service --serve requires --dir", file=sys.stderr)
            return 2
        from repro.service import EnsembleService

        service = EnsembleService(args.dir, _service_config(args))
        found = service.startup()
        print(
            f"service up on {args.dir}: replayed {found['records']} journal "
            f"records, killed {found['orphans_killed']} orphan workers, "
            f"adopted {found['completions_adopted']} completions, "
            f"requeued {found['requeued']} jobs"
        )
        summary = service.serve(drain=args.drain, max_wall_s=args.max_wall)
        print(
            f"served: {summary['completed']} completed, "
            f"{summary['quarantined']} quarantined, {summary['shed']} shed, "
            f"{summary['retries']} retries, {summary['worker_kills']} worker "
            f"kills ({summary['scenarios_per_hour']:.0f} scenarios/hour)"
        )
        return 0

    # default: a small in-process ensemble demo (Fig. 11-style sweep)
    from repro.service import (
        EnsembleService,
        JobSpec,
        ServiceClient,
    )

    root = pathlib.Path(args.dir or tempfile.mkdtemp(prefix="repro-service-"))
    client = ServiceClient(root)
    tier = args.backend
    n = max(2, min(args.jobs, 12))
    print(
        f"demo: {n}-member OGCM parameter sweep in {root}"
        + (f" ({tier} backend)" if tier else "")
    )
    for i in range(n):
        params = {
            "nx": 16,
            "ny": 8,
            "nz": 3,
            "dt": 1200.0,
            "steps": 8,
            "perturb_seed": i,
            "perturb_amp": 0.01,
            "checkpoint_every": 4,
        }
        if tier:
            params["backend"] = tier
        client.submit(
            JobSpec(kind="ocean", name=f"sweep-{i:02d}", params=params)
        )
    service = EnsembleService(root, _service_config(args))
    service.startup()
    summary = service.serve(drain=True, max_wall_s=args.max_wall)
    for job_id, state in sorted(client.status().items()):
        print(
            f"  {job_id:12s} {state['status']:11s} "
            f"attempts={state['attempts']} digest={state['digest']}"
        )
    print(
        f"done: {summary['completed']} completed, "
        f"{summary['quarantined']} quarantined "
        f"({summary['scenarios_per_hour']:.0f} scenarios/hour)"
    )
    return 0 if summary["completed"] == n else 1


def _cmd_campaign(args: argparse.Namespace) -> int:
    """Systematic fault campaign: sweep kind x magnitude x tier, audit."""
    import json as _json
    import pathlib
    import tempfile

    from repro.faults.campaign import run_campaign

    root = None
    if not args.in_process:
        root = pathlib.Path(
            args.dir or tempfile.mkdtemp(prefix="repro-campaign-")
        )
        print(f"fault campaign via ensemble service in {root}")
    tiers = args.tiers.split(",") if args.tiers else None
    scorecard = run_campaign(
        out_dir=pathlib.Path(args.out),
        root=root,
        smoke=args.smoke,
        tiers=tiers,
        use_service=not args.in_process,
        max_workers=args.workers,
        deadline_s=args.deadline,
    )
    if args.json:
        print(_json.dumps(scorecard, indent=2, sort_keys=True))
    else:
        print(
            f"campaign: {scorecard['n_pass']}/{scorecard['n_scenarios']} "
            f"scenarios pass, max tier error "
            f"{scorecard['max_tier_error']:.2%} "
            f"(band {scorecard['tier_band']:.0%})"
        )
        for row in scorecard["scenarios"]:
            if not row.get("ok"):
                continue
            print(
                f"  ok {row['scenario_id']:34s} "
                f"slowdown {row['slowdown_ratio']:.2f}x "
                f"(bound {row['slowdown_bound']:.2f}x) "
                f"moves={row['moves']}"
            )
        for failure in scorecard["failures"]:
            print(
                f"  FAIL {failure['scenario']}: {failure['audit']} "
                f"{failure['detail']}"
            )
        print(f"scorecard in {pathlib.Path(args.out) / 'BENCH_campaign.json'}")
    return 0 if scorecard["ok"] else 1


def _cmd_tune_precision(args: argparse.Namespace) -> int:
    """Accuracy-gated mixed-precision search (Precimonious-style ddmin)."""
    import pathlib
    import tempfile

    from repro.precision.report import format_search_result
    from repro.precision.search import TUNED_CONFIG_NAME, tune_precision

    root = None
    if not args.in_process:
        root = pathlib.Path(
            args.dir or tempfile.mkdtemp(prefix="repro-precision-")
        )
        print(f"candidate evaluation via ensemble service in {root}")
    result = tune_precision(
        smoke=args.smoke,
        service_root=root,
        max_workers=args.workers,
        out_dir=pathlib.Path(args.out),
    )
    print(format_search_result(result))
    print(f"tuned config in {pathlib.Path(args.out) / TUNED_CONFIG_NAME}")
    return 0 if result["passed"] else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments and dispatch to the chosen subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SC'99 'Personal Supercomputer for Climate Research' reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="regenerate the headline paper tables")
    p_report.add_argument(
        "sections",
        nargs="*",
        help="fig2 fig7 fig8 fig10 fig11 fig12 sec53 collectives telemetry "
        "faults recovery service precision",
    )
    p_report.set_defaults(func=_cmd_report)

    p_trace = sub.add_parser(
        "trace", help="traced coupled demo -> Chrome trace-event JSON"
    )
    p_trace.add_argument("out", help="output path for the trace JSON")
    p_trace.add_argument(
        "--windows", type=int, default=1, help="coupling windows to trace"
    )
    _add_backend_flag(p_trace)
    p_trace.set_defaults(func=_cmd_trace)

    p_run = sub.add_parser("run", help="short ocean integration")
    p_run.add_argument("--nx", type=int, default=64)
    p_run.add_argument("--ny", type=int, default=32)
    p_run.add_argument("--nz", type=int, default=8)
    p_run.add_argument("--px", type=int, default=2)
    p_run.add_argument("--py", type=int, default=2)
    p_run.add_argument("--dt", type=float, default=1200.0)
    p_run.add_argument("--steps", type=int, default=24)
    _add_backend_flag(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_be = sub.add_parser(
        "backend", help="fidelity-switchable communication backend tools"
    )
    p_be.add_argument(
        "--crossval",
        action="store_true",
        help="run the des/analytic/hybrid cross-validation gate "
        "(fig02/fig08/fig09 workloads; exit 1 outside the band)",
    )
    p_be.add_argument(
        "--sweep",
        action="store_true",
        help="Fig. 11-style large-N Pfpp sweep on the chosen tier",
    )
    p_be.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        help="crossval error band vs DES (fraction, default 0.05)",
    )
    p_be.add_argument(
        "--windows", type=int, default=2, help="fig09 coupling windows"
    )
    p_be.add_argument(
        "--nodes",
        type=int,
        nargs="+",
        default=[16, 64, 256, 1024, 4096],
        help="processor counts for --sweep",
    )
    p_be.add_argument("--json", default=None, help="also write the report JSON")
    _add_backend_flag(p_be)
    p_be.set_defaults(func=_cmd_backend)

    p_faults = sub.add_parser(
        "faults", help="coupled run under seeded fabric faults (reliability demo)"
    )
    p_faults.add_argument("--seed", type=int, default=0, help="fault-plan RNG seed")
    p_faults.add_argument(
        "--drop", type=float, default=0.01, help="per-packet drop probability"
    )
    p_faults.add_argument(
        "--corrupt", type=float, default=0.0, help="per-packet corruption probability"
    )
    p_faults.add_argument("--windows", type=int, default=2, help="coupling windows")
    p_faults.add_argument(
        "--no-retry",
        action="store_true",
        help="disable retransmits: the plan deadlocks the raw exchange "
        "and the watchdog names the blocked ranks",
    )
    p_faults.add_argument(
        "--links", action="store_true", help="print per-link fault counters"
    )
    p_faults.add_argument(
        "--crash",
        action="append",
        type=_parse_crash,
        default=[],
        metavar="NODE@TIME",
        help="fail-stop NODE at virtual TIME seconds ('auto' = mid-run); "
        "repeatable — a second crash can exhaust the spare pool",
    )
    p_faults.add_argument(
        "--recover",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="self-heal crashes via checkpoint rollback (--no-recover "
        "shows the structured failure instead)",
    )
    p_faults.add_argument(
        "--interval", type=int, default=2, help="windows between checkpoints (K)"
    )
    p_faults.add_argument(
        "--spares", type=int, default=1, help="hot-spare nodes in the cluster"
    )
    _add_backend_flag(p_faults, default="des")
    p_faults.set_defaults(func=_cmd_faults)

    p_pfpp = sub.add_parser("pfpp", help="interconnect PFPP summary")
    p_pfpp.add_argument(
        "--best-collectives",
        action="store_true",
        help="extend with the autotuned-collective PFPP at N=16/64/256",
    )
    p_pfpp.add_argument(
        "--nodes",
        type=int,
        nargs="+",
        default=list(_PFPP_NODES_DEFAULT),
        help="processor counts for the --backend sweep or --topology "
        "scoreboard (scoreboard default: 256 1024 4096)",
    )
    p_pfpp.add_argument(
        "--topology",
        metavar="NAME|all",
        help="cross-architecture PFPP scoreboard: one registered "
        "topology (fattree, torus2d, torus3d, mesh2d, hypercrossbar, "
        "ethernet) or 'all'",
    )
    p_pfpp.add_argument(
        "--crossval",
        action="store_true",
        help="with --topology: also DES-cross-validate each fabric at "
        "N=16 (gate: <=10%%)",
    )
    p_pfpp.add_argument(
        "--precision",
        choices=["all64", "wire32", "tuned"],
        default="all64",
        help="with --topology: add scoreboard rows with exchange/gsum "
        "payloads priced at the preset's (or the tuned config's) wire "
        "itemsizes",
    )
    p_pfpp.add_argument(
        "--out", default="benchmarks/out",
        help="with --precision tuned: directory holding PRECISION_tuned.json",
    )
    _add_backend_flag(p_pfpp)
    p_pfpp.set_defaults(func=_cmd_pfpp)

    p_coll = sub.add_parser(
        "collectives", help="autotuned collective plans over the Arctic fabric"
    )
    p_coll.add_argument(
        "--op",
        default="allreduce",
        choices=["allreduce", "broadcast", "allgather", "reduce_scatter",
                 "alltoall", "barrier"],
    )
    p_coll.add_argument(
        "--nodes",
        type=int,
        nargs="+",
        default=[16],
        help="rank counts (first one used outside --sweep)",
    )
    p_coll.add_argument("--nbytes", type=int, default=8, help="payload bytes")
    p_coll.add_argument(
        "--priority",
        default="low",
        choices=["high", "low"],
        help="traffic class: high = fewest rounds, low = cheapest time",
    )
    p_coll.add_argument(
        "--sweep",
        action="store_true",
        help="cost table across message sizes (algorithm crossovers)",
    )
    p_coll.add_argument(
        "--crossval",
        action="store_true",
        help="replay the winning schedule on the DES cluster (N<=16)",
    )
    _add_backend_flag(p_coll)
    p_coll.set_defaults(func=_cmd_collectives)

    p_svc = sub.add_parser(
        "service", help="crash-safe ensemble scenario service"
    )
    p_svc.add_argument(
        "--serve",
        action="store_true",
        help="run the journal-backed serving loop on --dir",
    )
    p_svc.add_argument(
        "--chaos",
        action="store_true",
        help="seeded SIGKILL campaign (workers + service) with a "
        "bit-exactness audit",
    )
    p_svc.add_argument("--dir", default=None, help="service root directory")
    p_svc.add_argument(
        "--workers", type=int, default=4, help="worker pool size"
    )
    p_svc.add_argument(
        "--drain",
        action="store_true",
        help="exit once every admitted job is terminal (batch mode)",
    )
    p_svc.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=5.0,
        help="seconds without a worker heartbeat before it is killed",
    )
    p_svc.add_argument(
        "--deadline",
        type=float,
        default=120.0,
        help="wall-clock seconds one attempt may run",
    )
    p_svc.add_argument(
        "--max-attempts",
        type=int,
        default=5,
        help="attempts before a job is quarantined",
    )
    p_svc.add_argument("--seed", type=int, default=0, help="chaos RNG seed")
    p_svc.add_argument(
        "--jobs", type=int, default=50, help="ensemble size (chaos/demo)"
    )
    p_svc.add_argument(
        "--max-wall",
        type=float,
        default=None,
        help="wall-clock budget in seconds (chaos default: 120)",
    )
    _add_backend_flag(p_svc)
    p_svc.set_defaults(func=_cmd_service)

    p_camp = sub.add_parser(
        "campaign",
        help="systematic fault campaign: sweep fault kind x magnitude x "
        "timing x scale x backend tier as service jobs and audit "
        "bit-exactness, bounded slowdown and detector behaviour",
    )
    p_camp.add_argument(
        "--smoke", action="store_true",
        help="reduced CI grid (one cross-tier point + one scenario per kind)",
    )
    p_camp.add_argument(
        "--dir", help="service root (default: a fresh temp directory)"
    )
    p_camp.add_argument(
        "--out", default=".", help="directory for BENCH_campaign.json"
    )
    p_camp.add_argument(
        "--tiers", help="comma-separated backend tiers (default des,analytic,hybrid)"
    )
    p_camp.add_argument(
        "--in-process", action="store_true",
        help="run scenarios inline instead of as ensemble-service jobs",
    )
    p_camp.add_argument("--workers", type=int, default=2)
    p_camp.add_argument(
        "--deadline", type=float, default=300.0,
        help="per-job fixed deadline ceiling (seconds)",
    )
    p_camp.add_argument("--json", action="store_true", help="print the raw scorecard")
    p_camp.set_defaults(func=_cmd_campaign)

    p_tune = sub.add_parser(
        "tune-precision",
        help="accuracy-gated mixed-precision search: start from all32, "
        "ddmin-revert the fewest groups to float64 that pass the "
        "SST / kinetic-energy / overturning gates vs the float64 baseline",
    )
    p_tune.add_argument(
        "--smoke", action="store_true",
        help="reduced CI run (16x8 grid, 4 coupling windows)",
    )
    p_tune.add_argument(
        "--out", default="benchmarks/out",
        help="directory for PRECISION_tuned.json (default benchmarks/out)",
    )
    p_tune.add_argument(
        "--dir", help="service root (default: a fresh temp directory)"
    )
    p_tune.add_argument(
        "--in-process", action="store_true",
        help="evaluate candidates inline instead of as ensemble-service jobs",
    )
    p_tune.add_argument("--workers", type=int, default=2)
    p_tune.set_defaults(func=_cmd_tune_precision)

    p_century = sub.add_parser("century", help="the Section 6 century projection")
    p_century.set_defaults(func=_cmd_century)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
