"""Host-time tracing of the repro layers, from outside the package.

The tracer wraps public entry points of each layer (``gcm``, ``parallel``,
``backend``, ``precision``, ``hardware``, ``sim``, ``service``) by
patching the module and class attributes that callers look them up
through, and restores the originals afterwards.  Nothing under ``src/``
knows it is being measured.

Every wrapped call becomes a span: name, start, end, parent span and the
id of the benchmark round that caused it.  Spans stay in memory and are
written at the end as Chrome trace-event JSON (``chrome://tracing`` or
https://ui.perfetto.dev).  A span's *self time* is its duration minus the
time covered by its child spans.

Counters are taken at the same boundaries: CG iterations and counted
flops from the values the wrapped calls return, DES events from the
engine around each ``Engine.run``, and fabric / NIU / reliable-layer /
fault counters from every cluster built while the tracer is installed,
read after each of its engine runs.  The fabric, NIU and reliable-layer
code runs as event callbacks inside ``Engine.run``, so its host time is
``sim.run``'s self time; only its counters are split out by layer.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from typing import Callable, Dict, List, Tuple

from repro.backend.analytic import AnalyticBackend
from repro.backend.des import DESBackend
from repro.backend.hybrid import HybridBackend
from repro.gcm import cg as gcm_cg
from repro.gcm import prognostic
from repro.gcm.coupled import CoupledModel, DESCoupledModel
from repro.gcm.physics import AtmospherePhysics, OceanForcing
from repro.gcm.timestepper import Model
from repro.hardware.cluster import HyadesCluster
from repro.parallel.des_spmd import DESExchanger
from repro.parallel.exchange import HaloExchanger, exchange_halos
from repro.parallel.runtime import LockstepRuntime
from repro.precision import codec
from repro.service.api import EnsembleService
from repro.service.journal import Journal
from repro.service.metrics import ServiceMetrics
from repro.service.supervisor import Supervisor
from repro.sim.engine import Engine


def cluster_counters(cluster) -> Dict[str, int]:
    """Cumulative fabric, NIU, reliable-layer and fault counters of a
    :class:`repro.hardware.cluster.HyadesCluster`."""
    fabric = cluster.fabric
    routers = list(fabric._iter_routers())
    faults = fabric.fault_counters()
    out = {
        "network.packets_forwarded": sum(r.packets_forwarded for r in routers),
        "network.packets_injected": sum(l.stats.packets for l in fabric.inject_links),
        "niu.packets_sent": 0,
        "niu.reliable.data_sent": 0,
        "niu.reliable.retransmissions": 0,
        "niu.reliable.nacks_sent": 0,
        "faults.injected_drops": faults["link_drops"],
        "faults.injected_corruptions": faults["link_corruptions"],
        "faults.router_crc_drops": faults["router_crc_drops"],
    }
    for node in cluster.nodes:
        niu = node.niu
        out["niu.packets_sent"] += niu.packets_sent
        layer = getattr(niu, "_reliable_layer", None)
        if layer is not None:
            out["niu.reliable.data_sent"] += layer.data_packets_sent
            out["niu.reliable.retransmissions"] += layer.retransmissions
            out["niu.reliable.nacks_sent"] += layer.nacks_sent
    return out


class Tracer:
    """In-memory span recorder with per-name self-time aggregation."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.active = False
        self.round_id = -1
        #: (name, start, end, span id, parent id, round id)
        self.spans: List[Tuple[str, float, float, int, int, int]] = []
        self.self_s: Dict[str, float] = {}
        self.total_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        #: ``(span id, child seconds)`` of the open spans, innermost last.
        self._stack: List[list] = []
        self._next_id = 0
        #: engine id -> [cluster, counters at the last harvest]
        self._clusters: Dict[int, list] = {}
        #: ``(event, job id, perf_counter time, round id)`` from the service
        self.service_events: List[Tuple[str, str, float, int]] = []
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # forked service workers inherit the patched functions; their
        # spans would die with them, so they run untraced
        self.active = False

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to the counter ``name`` (while a traced round runs)."""
        if self.active:
            self.counts[name] = self.counts.get(name, 0) + n

    def call(self, name: str, fn: Callable, args, kwargs, on_result=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        if not self.active:
            return fn(*args, **kwargs)
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - start
            if self._stack:
                self._stack[-1][1] += dur
            self.spans.append((name, start, end, sid, parent, self.round_id))
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[1]
            self.total_s[name] = self.total_s.get(name, 0.0) + dur
            self.calls[name] = self.calls.get(name, 0) + 1
        if on_result is not None:
            on_result(result, args)
        return result

    # -- rounds and DES clusters -------------------------------------------

    def begin_round(self, round_id: int) -> None:
        """Start recording spans and counters for round ``round_id``."""
        self.round_id = round_id
        self.active = True

    def end_round(self) -> None:
        """Stop recording and release the clusters built in the round."""
        self.active = False
        self._clusters.clear()

    def add_cluster(self, cluster) -> None:
        """Track a just-built cluster's counters."""
        self._clusters[id(cluster.engine)] = [cluster, cluster_counters(cluster)]

    def harvest(self, engine) -> None:
        """Fold the counter deltas of ``engine``'s cluster since the last
        harvest into :attr:`counts`."""
        entry = self._clusters.get(id(engine))
        if entry is None:
            return
        now = cluster_counters(entry[0])
        for key, val in now.items():
            self.count(key, val - entry[1][key])
        entry[1] = now

    # -- export -------------------------------------------------------------

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace-event JSON (microsecond timestamps)."""
        events = [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
             "args": {"name": "perfbench host time"}},
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": 1,
             "args": {"name": "main"}},
        ]
        for name, start, end, sid, parent, rid in self.spans:
            events.append({
                "ph": "X", "name": name, "cat": name.split(".")[0],
                "pid": 1, "tid": 1,
                "ts": (start - self.t0) * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": sid, "parent": parent, "round": rid},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)


class Patcher:
    """Installs and removes the layer wrappers around one tracer."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, on_result=None) -> Callable:
        tracer = self.tracer

        def wrapped(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, on_result)

        return functools.update_wrapper(wrapped, fn)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def method(self, cls, attr: str, name: str, on_result=None) -> None:
        """Wrap ``cls.attr`` (defined on ``cls`` itself)."""
        self._set(cls, attr, self._wrap(name, cls.__dict__[attr], on_result))

    def function(self, fn: Callable, name: str, on_result=None) -> None:
        """Wrap ``fn`` at every ``repro`` module attribute bound to it."""
        wrapped = self._wrap(name, fn, on_result)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith("repro"):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._set(mod, attr, wrapped)

    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        tr = self.tracer

        def on_step(stats, _args):
            tr.count("gcm.flops", stats.flops_ps + stats.flops_ds + stats.flops_nh)

        def on_cg(result, _args):
            tr.count("gcm.cg.iters", result.iterations)

        def on_cluster(_none, args):
            tr.add_cluster(args[0])

        def on_poll(events, _args):
            now = time.perf_counter()
            for ev in events:
                if ev["event"] == "retry":
                    tr.count("service.retries")
                tr.service_events.append((ev["event"], ev["job_id"], now, tr.round_id))

        def on_spawn(handle, _args):
            tr.service_events.append(
                ("spawned", handle.job_id, time.perf_counter(), tr.round_id)
            )

        self.method(Model, "step", "gcm.step", on_step)
        self.function(prognostic.compute_g_terms, "gcm.g_terms")
        for cls in (AtmospherePhysics, OceanForcing):
            self.method(cls, "apply_tendencies", "gcm.physics")
            self.method(cls, "convective_adjustment", "gcm.physics")
        self.function(gcm_cg.preconditioned_cg, "gcm.cg", on_cg)
        self.method(CoupledModel, "exchange_boundary_conditions", "gcm.coupler")
        self.method(DESCoupledModel, "exchange_boundary_conditions", "gcm.coupler")

        self.function(exchange_halos, "parallel.exchange")
        self.method(HaloExchanger, "gather_global", "parallel.regrid")
        self.method(HaloExchanger, "scatter_global", "parallel.regrid")
        for attr in ("exchange", "global_sum", "barrier", "sync",
                     "charge_compute", "charge_phase"):
            self.method(LockstepRuntime, attr, "parallel.runtime")
        self.method(DESExchanger, "exchange", "parallel.des_exchange")

        for cls in (AnalyticBackend, DESBackend, HybridBackend):
            for attr in ("exchange_time", "gsum_time", "barrier_time"):
                self.method(cls, attr, "backend.quote")
        for cls in (DESBackend, *DESBackend.__subclasses__()):
            if "_cluster" in cls.__dict__:
                self._counter(cls, "_cluster", "backend.des.simulations")
        self._counter(DESBackend, "pair_time", "backend.des.lookups")
        self._counter(DESBackend, "_gsum_wire", "backend.des.lookups")

        for attr in ("cast", "pack", "unpack"):
            self.method(codec.WireCodec, attr, "precision.codec")
        for attr in ("apply", "precondition", "apply_stacked", "precondition_stacked"):
            self.method(codec.CastingOperator, attr, "precision.codec")
        self.function(codec.quantize_gsum, "precision.codec")

        self.method(HyadesCluster, "__init__", "hardware.cluster_build", on_cluster)
        self._engine_run(Engine)

        self.method(EnsembleService, "serve", "service.serve")
        self.method(EnsembleService, "step", "service.step")
        self.method(Journal, "append", "service.journal")
        self.method(Supervisor, "spawn", "service.spawn", on_spawn)
        self.method(Supervisor, "poll", "service.poll", on_poll)
        self.method(ServiceMetrics, "write_status", "service.status")

    def _counter(self, cls, attr: str, name: str) -> None:
        fn = cls.__dict__[attr]
        tr = self.tracer

        def counted(*args, **kwargs):
            tr.count(name)
            return fn(*args, **kwargs)

        self._set(cls, attr, counted)

    def _engine_run(self, engine_cls) -> None:
        fn = engine_cls.__dict__["run"]
        tr = self.tracer

        def on_run(_now, args):
            engine = args[0]
            tr.count("sim.events", engine.events_executed - before.pop())
            tr.harvest(engine)

        before: List[int] = []
        inner = self._wrap("sim.run", fn, on_run)

        def run(engine, *args, **kwargs):
            if not tr.active:
                return fn(engine, *args, **kwargs)
            before.append(engine.events_executed)
            return inner(engine, *args, **kwargs)

        self._set(engine_cls, "run", run)

    def remove(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def self_time_table(tracer: Tracer, rounds: int) -> List[Tuple[str, float, float, int]]:
    """``(span name, self s/round, total s/round, calls/round)`` rows,
    sorted by self time."""
    n = max(rounds, 1)
    rows = [
        (name, tracer.self_s[name] / n, tracer.total_s[name] / n,
         tracer.calls[name] / n)
        for name in tracer.self_s
    ]
    return sorted(rows, key=lambda r: -r[1])
