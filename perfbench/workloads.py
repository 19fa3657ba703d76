"""The four benchmark workloads, their seeded inputs and output checks.

Each workload is a closed loop of *rounds*: a round starts when the
previous one has finished, on a system built afresh for it (that build is
timed as ``setup_s``), so every round does the same work however fast
the program runs.  A round yields one or more *op* samples in host
seconds, and the same timed in reference seconds (``calibrate.py``), which
feed ``op_s.p50`` / ``op_s.tail``:

* ``coupled_production`` -- a round is four coupling windows of the
  paper's production coupled model (Section 5.1); an op is one window;
* ``pfpp_des`` -- a round is one cold-cache packet-exact PFPP sweep, the
  N=256 point then the N=1024 point, each on a fresh DES backend; the op
  is the sweep;
* ``lossy_coupling`` -- a round is six coupling windows of a DES-coupled
  model whose boundary fields cross a lossy fabric; an op is one window;
* ``ensemble_drain`` -- a round is one batch of perturbed ocean members
  drained through a real ensemble service; an op is one member, timed
  from the start of the drain to its completion.

The seed only generates inputs: the theta perturbation of
``coupled_production``, the fault-plan seed of ``lossy_coupling`` (whose
models start from their default state), the fabric seed of ``pfpp_des``
and the member seeds of ``ensemble_drain``.  After every round the
outputs are checked: against pinned values for seeds recorded in
``reference.json``, against invariants for the others.
"""

from __future__ import annotations

import gc
import math
import pathlib
import shutil
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from calibrate import HostClock
from layers import cluster_counters
from repro.backend import resolve_backend
from repro.backend.des import DESBackend, _next_pow2
from repro.backend.sweep import sweep_point
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultPlan
from repro.gcm.atmosphere import atmosphere_model
from repro.gcm.coupled import CouplerParams, DESCoupledModel, coupled_model
from repro.gcm.ocean import ocean_model
from repro.gcm.state import FIELDS_2D, FIELDS_3D
from repro.hardware.cluster import HyadesCluster, HyadesConfig
from repro.network.fattree import FatTreeParams
from repro.service import (EnsembleService, JobSpec, ServiceClient,
                           ServiceConfig, SupervisorConfig)
from repro.service.jobs import model_digest

#: Amplitude (K) of the seeded white-noise initial theta perturbation.
#: At production size a 0.01 K perturbation leaves the ocean CG at its
#: 200-iteration cap (relative residual about 9e-7 against the 1e-7
#: tolerance); at 1e-4 K every solve of a round converges.
THETA_AMP = 1e-4


def _finite_state(model) -> bool:
    return all(
        np.isfinite(model.state.to_global(name)).all()
        for name in FIELDS_3D + FIELDS_2D
    )


def _perturb_theta(model, rng) -> None:
    theta = model.state.to_global("theta")
    theta = theta + THETA_AMP * rng.standard_normal(theta.shape)
    model.initialize(theta=theta, tracer=model.state.to_global("tracer"))


def _phase_split(model) -> Dict[str, Dict[str, float]]:
    """Virtual seconds per phase x kind from the attached recorder."""
    return {
        phase: {k: tot[k] for k in ("compute_s", "exchange_s", "gsum_s",
                                    "barrier_s", "sync_s")}
        for phase, tot in model.runtime.metrics.totals().items()
    }


def compare_pins(expected: Optional[dict], got: dict, where: str) -> List[str]:
    """Exact comparison of pinned values; returns the mismatches."""
    if expected is None:
        return []
    return [
        f"{where}: pinned {key} = {want!r}, got {got.get(key)!r}"
        for key, want in expected.items() if got.get(key) != want
    ]


class Workload:
    """A seeded closed-loop workload (see the module docstring)."""

    name = ""

    def __init__(self, seed: int, clock: HostClock, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny
        self.clock = clock
        self.rounds_done = 0
        #: Deterministic values of the first round, for ``reference.json``.
        self.pins: dict = {}

    def config(self) -> dict:
        """The resolved workload configuration (hashed into the record)."""
        raise NotImplementedError

    def setup(self) -> None:
        """Build a fresh system for the next round (timed by the caller)."""
        raise NotImplementedError

    def round(self) -> List[Tuple[float, float]]:
        """Run one round; returns its op samples as (host s, reference s)."""
        raise NotImplementedError

    def check(self, reference: Optional[dict]) -> List[str]:
        """Check the last round's outputs; returns the failures."""
        raise NotImplementedError

    def headline(self, op_p50: float) -> dict:
        """Workload-specific figures for the printed summary and record."""
        return {}

    def close(self) -> None:
        """Release what the workload holds (files, processes)."""


class _CoupledBase(Workload):
    """Shared loop and checks of the two coupled-model workloads."""

    windows = 4

    def round(self) -> List[Tuple[float, float]]:
        ops = []
        for w in range(self.windows):
            _, host, ref = self.clock.timed(self.cm.step_coupled)
            ops.append((host, ref))
            if w == 1 and self.rounds_done == 0:
                self.pins = self._pins()
        self.rounds_done += 1
        return ops

    def _models(self):
        return (self.cm.atmosphere, self.cm.ocean)

    def _pins(self) -> dict:
        atm, ocn = self._models()
        return {
            "atm_digest": model_digest(atm),
            "ocn_digest": model_digest(ocn),
            "elapsed_s": self.cm.elapsed,
            "cg_iters": sum(h.ni for m in (atm, ocn) for h in m.history),
            "phase_split": {"atm": _phase_split(atm), "ocn": _phase_split(ocn)},
        }

    def check(self, reference: Optional[dict]) -> List[str]:
        errors = []
        where = f"{self.name} round {self.rounds_done}"
        for m in self._models():
            stuck = sum(not h.cg_converged for h in m.history)
            if stuck:
                errors.append(f"{where}: {m.config.name} CG hit its iteration "
                              f"cap in {stuck} of {len(m.history)} steps")
            if not _finite_state(m):
                errors.append(f"{where}: {m.config.name} state is not finite")
        if self.rounds_done == 1:
            errors += compare_pins(reference, self.pins, f"{where} window 2")
        return errors

    def headline(self, op_p50: float) -> dict:
        """Simulated years per host day at the median window time."""
        sim_s = self.cm.params.coupling_interval * self.cm.atmosphere.config.dt
        return {"sypd": sim_s / (365.25 * 86400.0) / (op_p50 / 86400.0)}


class CoupledProduction(_CoupledBase):
    name = "coupled_production"

    def config(self) -> dict:
        if self.tiny:
            shape = dict(nx=32, ny=16, nz_atm=3, nz_ocn=4, px=2, py=2)
        else:
            shape = dict(nx=128, ny=64, nz_atm=10, nz_ocn=30, px=4, py=4)
        return dict(shape, dt=405.0, coupling_interval=4, backend="analytic",
                    precision="all64", theta_amp=THETA_AMP,
                    windows_per_round=self.windows)

    def setup(self) -> None:
        cfg = self.config()
        self.cm = coupled_model(
            **{k: cfg[k] for k in ("nx", "ny", "nz_atm", "nz_ocn", "px", "py",
                                   "dt", "coupling_interval", "backend",
                                   "precision")}
        )
        rng = np.random.default_rng(self.seed)
        for m in self._models():
            _perturb_theta(m, rng)
            m.runtime.attach_metrics()


class LossyCoupling(_CoupledBase):
    name = "lossy_coupling"
    windows = 6

    def config(self) -> dict:
        if self.tiny:
            shape = dict(nx=16, ny=8, nz_atm=3, nz_ocn=4, px=2, py=2)
        else:
            shape = dict(nx=64, ny=32, nz_atm=5, nz_ocn=8, px=4, py=4)
        return dict(shape, dt=600.0, coupling_interval=2, precision="wire32",
                    reliable=True, drop_prob=0.01, corrupt_prob=0.002,
                    fault_seed=self.seed, windows_per_round=self.windows)

    def setup(self) -> None:
        cfg = self.config()
        self.cluster = HyadesCluster(HyadesConfig(n_nodes=cfg["px"] * cfg["py"]))
        self.injector = FaultInjector(
            self.cluster.fabric,
            FaultPlan(seed=cfg["fault_seed"], drop_prob=cfg["drop_prob"],
                      corrupt_prob=cfg["corrupt_prob"]),
        )
        common = dict(nx=cfg["nx"], ny=cfg["ny"], px=cfg["px"], py=cfg["py"],
                      dt=cfg["dt"], precision=cfg["precision"])
        atm = atmosphere_model(nz=cfg["nz_atm"], **common)
        ocn = ocean_model(nz=cfg["nz_ocn"], **common)
        for m in (atm, ocn):
            m.runtime.attach_metrics()
        self.cm = DESCoupledModel(
            atm, ocn, self.cluster,
            CouplerParams(coupling_interval=cfg["coupling_interval"]),
            reliable=cfg["reliable"],
        )

    def _pins(self) -> dict:
        pins = super()._pins()
        pins.update(
            sim_events=self.cluster.engine.events_executed,
            packets_forwarded=cluster_counters(self.cluster)["network.packets_forwarded"],
            reliable=self.cm.reliability_stats(),
            faults=self.injector.counters(),
        )
        pins["phase_split"]["des_elapsed_s"] = self.cm.des_elapsed
        return pins


class SeededDESBackend(DESBackend):
    """The DES tier on fat trees with a given fabric seed, keeping the
    clusters it builds so that their counters can be checked."""

    def __init__(self, fabric_seed: int) -> None:
        super().__init__()
        self.fabric_seed = fabric_seed
        self.clusters: list = []

    def _cluster(self, n_nodes: int = 2):
        self.simulations += 1
        cluster = HyadesCluster(HyadesConfig(
            n_nodes=_next_pow2(max(n_nodes, 2)),
            fabric=FatTreeParams(seed=self.fabric_seed),
        ))
        self.clusters.append(cluster)
        return cluster


class PfppDES(Workload):
    name = "pfpp_des"
    QUOTES = ("tgsum_s", "texchxy_s", "texchxyz_s")

    def __init__(self, seed: int, clock: HostClock, tiny: bool = False) -> None:
        super().__init__(seed, clock, tiny)
        self.point_s: Dict[int, List[float]] = {n: [] for n in self.config()["n_values"]}

    def config(self) -> dict:
        return {"n_values": [16, 64] if self.tiny else [256, 1024],
                "fabric_seed": self.seed}

    def setup(self) -> None:
        """The analytic-tier quotes the DES points are compared with."""
        analytic = resolve_backend("analytic")
        self.analytic = {n: sweep_point(n, analytic) for n in self.point_s}

    def round(self) -> List[Tuple[float, float]]:
        total = total_ref = 0.0
        self.last = {}
        for n in self.point_s:
            gc.collect()
            be = SeededDESBackend(self.seed)
            row, dt, ref = self.clock.timed(lambda: sweep_point(n, be))
            total += dt
            total_ref += ref
            self.point_s[n].append(dt)
            self.last[str(n)] = dict(
                {key: row[key] for key in self.QUOTES},
                simulations=be.simulations,
                sim_events=sum(cl.engine.events_executed for cl in be.clusters),
                packets_forwarded=sum(
                    cluster_counters(cl)["network.packets_forwarded"]
                    for cl in be.clusters
                ),
            )
            del be
        self.rounds_done += 1
        return [(total, total_ref)]

    def gaps(self) -> dict:
        """DES-vs-analytic quote gaps, (analytic - DES) / DES, recorded
        as values: the cross-tier band is gated only at N <= 16."""
        return {
            str(n): {
                key: (row[key] - self.last[str(n)][key]) / self.last[str(n)][key]
                for key in self.QUOTES
            }
            for n, row in self.analytic.items()
        }

    def check(self, reference: Optional[dict]) -> List[str]:
        errors = []
        where = f"pfpp_des sweep {self.rounds_done}"
        for n, quotes in self.last.items():
            for key in self.QUOTES:
                if not (math.isfinite(quotes[key]) and quotes[key] > 0):
                    errors.append(f"{where}: N={n} {key} = {quotes[key]!r}")
        if self.rounds_done == 1:
            self.pins = {"points": self.last}
            errors += compare_pins(reference, self.pins, where)
        elif self.last != self.pins["points"]:
            errors.append(f"{where}: cold sweep differs from the first sweep")
        return errors

    def headline(self, op_p50: float) -> dict:
        out = {f"point_s.n{n}": float(np.median(v)) for n, v in self.point_s.items()}
        out["des_vs_analytic_gap"] = self.gaps()
        return out


class EnsembleDrain(Workload):
    name = "ensemble_drain"

    def __init__(self, seed: int, clock: HostClock, tiny: bool = False,
                 workdir=None) -> None:
        super().__init__(seed, clock, tiny)
        self.workdir = pathlib.Path(workdir)
        self.service: Optional[EnsembleService] = None
        self.drain_s: List[float] = []

    def config(self) -> dict:
        members = 4 if self.tiny else 24
        return {
            "steps": 4 if self.tiny else 8,
            "member_seeds": [self.seed * 1000 + i for i in range(members)],
            "perturb_amp": THETA_AMP,
            "max_workers": 2,
            "checkpoint_every": 4,
        }

    def setup(self) -> None:
        """A fresh service root with the batch spooled, started up."""
        cfg = self.config()
        self._cleanup()
        self.root = self.workdir / f"drain{self.rounds_done}"
        self.client = ServiceClient(self.root)
        self.ids = self.client.submit_many(
            JobSpec(kind="ocean", name=f"member-{s}", params={
                "steps": cfg["steps"], "perturb_seed": s,
                "perturb_amp": cfg["perturb_amp"],
                "checkpoint_every": cfg["checkpoint_every"],
            })
            for s in cfg["member_seeds"]
        )
        self.service = EnsembleService(self.root, ServiceConfig(
            supervisor=SupervisorConfig(max_workers=cfg["max_workers"])
        ))
        self.service.startup()

    def round(self) -> List[Tuple[float, float]]:
        done: Dict[str, float] = {}

        def on_event(ev):
            if ev.get("event") == "completed":
                done[ev["job_id"]] = time.perf_counter()

        before = self.clock.factor()
        t0 = time.perf_counter()
        self.summary = self.service.serve(drain=True, max_wall_s=150.0,
                                          on_event=on_event)
        self.drain_s.append(time.perf_counter() - t0)
        factor = 0.5 * (before + self.clock.probe())
        self.rounds_done += 1
        self.status = self.client.status()
        host = [done.get(j, math.nan) - t0 for j in self.ids]
        return [(h, h / factor) for h in host]

    def check(self, reference: Optional[dict]) -> List[str]:
        errors = []
        where = f"ensemble drain {self.rounds_done}"
        digests = []
        for job_id in self.ids:
            st = self.status.get(job_id)
            if st is None or st["status"] != "completed":
                errors.append(f"{where}: job {job_id} is {st and st['status']}")
            digests.append(st and st["digest"])
        if self.summary["quarantined"]:
            errors.append(f"{where}: {self.summary['quarantined']} quarantined")
        if self.rounds_done == 1:
            self.pins = {"member_digests": digests}
            errors += compare_pins(reference, self.pins, where)
        elif digests != self.pins["member_digests"]:
            errors.append(f"{where}: member digests differ from the first drain")
        self._cleanup()
        return errors

    def headline(self, op_p50: float) -> dict:
        drain = float(np.median(self.drain_s))
        return {"scenarios_per_hour": len(self.ids) * 3600.0 / drain,
                "drain_s.p50": drain}

    def _cleanup(self) -> None:
        if self.service is not None:
            self.service.shutdown()
            self.service = None
            shutil.rmtree(self.root, ignore_errors=True)

    def close(self) -> None:
        self._cleanup()


WORKLOADS = {
    cls.name: cls
    for cls in (CoupledProduction, PfppDES, LossyCoupling, EnsembleDrain)
}
