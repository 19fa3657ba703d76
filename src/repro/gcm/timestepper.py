"""The model time-stepping loop (paper Fig. 6).

Per step:

* **PS** — one five-field, full-halo exchange; per-tile evaluation of the
  G terms, physics tendencies, Adams-Bashforth extrapolation, hydrostatic
  pressure and the provisional velocity.  Compute is charged per rank at
  Fps; the exchange at the interconnect model's 3-D cost.
* **DS** — the depth-integrated divergence becomes the elliptic RHS; the
  preconditioned CG solves for p_s on the *DS decomposition* (by default
  one tile per SMP master, matching the paper's nxy = 1024 over eight
  masters), with two 2-D exchanges and two global sums per iteration.
  The solve is globally synchronous, so its cost is aggregated and
  charged uniformly.
* velocities corrected with grad p_s, tracers stepped, w re-diagnosed,
  convective adjustment applied.

Between the PS tiles (two per SMP) and the DS tiles (one per SMP) data
moves through shared memory; that regridding is functionally exact here
and charged zero network time (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.gcm import operators as op
from repro.gcm.cg import CGResult, _default_gsum, preconditioned_cg
from repro.gcm.eos import IdealGasEOS, LinearEOS
from repro.gcm.grid import Grid, GridParams
from repro.gcm.operators import FlopCounter
from repro.gcm.pressure import EllipticOperator
from repro.gcm.prognostic import (
    DynamicsParams,
    ab2_extrapolate,
    compute_g_terms,
    correct_velocity,
    provisional_velocity,
)
from repro.gcm.state import ModelState
from repro.parallel.exchange import HaloExchanger, exchange_halos
from repro.parallel.runtime import LockstepRuntime, MachineModel
from repro.parallel.tiling import Decomposition
from repro.precision import CastingOperator, quantize_gsum, resolve_precision


@dataclass
class ModelConfig:
    """Everything needed to build one isomorph."""

    name: str = "ocean"
    grid: GridParams = dc_field(default_factory=GridParams)
    px: int = 4
    py: int = 4
    olx: int = 3
    ds_px: Optional[int] = None  # DS decomposition; default px//2 x py
    ds_py: Optional[int] = None
    cpus_per_node: int = 2
    dt: float = 1200.0
    eos: Any = dc_field(default_factory=LinearEOS)
    dynamics: DynamicsParams = dc_field(default_factory=DynamicsParams)
    physics: Any = None
    cg_tol: float = 1e-7
    cg_maxiter: int = 200
    #: Communication fidelity: a tier name ("des" / "analytic" /
    #: "hybrid"), a :class:`repro.backend.CommBackend` instance, or
    #: ``None`` for the legacy analytic default.
    backend: Any = None
    machine: MachineModel = dc_field(default_factory=MachineModel)
    tracer_name: str = "salt"  # "salt" (ocean) or "q" (atmosphere)
    #: Restore the non-hydrostatic pressure component (Section 3.1):
    #: w becomes prognostic and a 3-D Poisson solve projects the full
    #: velocity field to non-divergence each step.
    nonhydrostatic: bool = False
    #: Mixed-precision assignment: ``None`` (the seed's all-float64
    #: behaviour), a preset name ("all64"/"all32"/"wire32"), a dict, or
    #: a :class:`repro.precision.PrecisionConfig`.
    precision: Any = None

    def validate(self) -> None:
        """Reject configurations that would fail obscurely later."""
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.cg_tol <= 0 or self.cg_maxiter < 1:
            raise ValueError("cg_tol must be > 0 and cg_maxiter >= 1")
        if self.olx < 1:
            raise ValueError("PS halo width olx must be >= 1")
        if self.px < 1 or self.py < 1:
            raise ValueError("process grid must be positive")
        if self.cpus_per_node < 1:
            raise ValueError("cpus_per_node must be >= 1")

    def resolve_ds_shape(self) -> tuple[int, int]:
        """DS tiles default to pairing the two PS tiles of each SMP."""
        if self.ds_px is not None and self.ds_py is not None:
            return self.ds_px, self.ds_py
        if self.cpus_per_node > 1 and self.px % self.cpus_per_node == 0:
            return self.px // self.cpus_per_node, self.py
        return self.px, self.py


@dataclass
class StepStats:
    """Per-step record: solver iterations, flops, convergence, and the
    virtual-time phase breakdown (the measured counterparts of the
    performance model's tps/tds terms, eqs. 4-10)."""

    ni: int = 0
    cg_residual: float = 0.0
    cg_converged: bool = True
    flops_ps: int = 0
    flops_ds: int = 0
    mixed_cells: int = 0
    t_ps_exch: float = 0.0
    t_ps_compute: float = 0.0
    t_ds: float = 0.0
    t_step: float = 0.0
    # non-hydrostatic solve (when enabled)
    ni_nh: int = 0
    flops_nh: int = 0
    t_nh: float = 0.0
    nh_converged: bool = True


class Model:
    """One isomorph (atmosphere or ocean) on the simulated cluster."""

    def __init__(
        self,
        config: ModelConfig,
        depth: Optional[np.ndarray] = None,
        runtime: Optional[LockstepRuntime] = None,
    ) -> None:
        config.validate()
        self.config = config
        self.precision = resolve_precision(config.precision)
        prec = self.precision
        self.decomp = Decomposition(
            config.grid.nx, config.grid.ny, config.px, config.py, olx=config.olx
        )
        self.grid = Grid(config.grid, self.decomp, depth=depth, dtype=prec.grid_dtype())
        self.state = ModelState.zeros(self.grid, dtypes=prec.state_dtypes())
        # A decomposition smaller than an SMP (e.g. serial 1x1) runs one
        # rank per node.
        cpn = config.cpus_per_node
        if self.decomp.n_ranks % cpn:
            cpn = 1
        self.runtime = runtime or LockstepRuntime(
            self.decomp,
            backend=config.backend,
            cpus_per_node=cpn,
            machine=config.machine,
        )
        self.runtime.trace_label = config.name
        # DS decomposition (one tile per SMP master by default).
        ds_px, ds_py = config.resolve_ds_shape()
        if (ds_px, ds_py) == (config.px, config.py):
            self.ds_decomp = self.decomp
            self.ds_grid = self.grid
        else:
            self.ds_decomp = Decomposition(
                config.grid.nx, config.grid.ny, ds_px, ds_py, olx=1
            )
            self.ds_grid = Grid(
                config.grid, self.ds_decomp, depth=depth, dtype=prec.grid_dtype()
            )
        self.elliptic = EllipticOperator(self.ds_grid)
        if config.nonhydrostatic:
            from repro.gcm.nonhydrostatic import NonHydrostaticOperator

            self.nh_operator = NonHydrostaticOperator(self.grid)
        else:
            self.nh_operator = None
        self._hx_ps = HaloExchanger(self.decomp)
        self._hx_ds = HaloExchanger(self.ds_decomp)
        # Mixed-precision wiring, resolved once: the all64 default keeps
        # every path below bit- and cost-identical to the seed (8-byte
        # itemsizes, no casts, no solver hooks).
        self._ps_names = ("u", "v", "theta", "tracer", "phy")
        self._ps_itemsizes = prec.exchange_itemsizes(self._ps_names)
        self._ps_wire_dtypes = prec.exchange_wire_dtypes(self._ps_names)
        self._solver_itemsize = prec.ds_itemsize()
        self._solver_wire = prec.exchange_wire_dtype("ps")
        self._gsum_nbytes = prec.gsum_nbytes()
        self._cg_dtype = prec.cg_dtype()
        self._first_step = True
        self.history: List[StepStats] = []
        # Coupling fields (per-PS-tile 2-D arrays), set by the coupler:
        # atmosphere consumes "sst"; ocean consumes "taux"/"theta_surf".
        self.coupling: Dict[str, List[np.ndarray]] = {}

    # ------------------------------------------------------------------

    @property
    def is_atmosphere(self) -> bool:
        return isinstance(self.config.eos, IdealGasEOS)

    def initialize(self, theta: np.ndarray, tracer: np.ndarray, u=None, v=None) -> None:
        """Set initial conditions from global arrays."""
        self.state.set_from_global("theta", theta)
        self.state.set_from_global("tracer", tracer)
        if u is not None:
            self.state.set_from_global("u", u)
        if v is not None:
            self.state.set_from_global("v", v)
        self._first_step = True

    # ------------------------------------------------------------------

    def step(self) -> StepStats:
        """Advance one time step (the Fig. 6 loop body)."""
        cfg = self.config
        st = self.state
        rt = self.runtime
        stats = StepStats()

        t0 = rt.elapsed

        # ---- PS: the one exchange + sync point of the step -------------
        rt.exchange(
            [st["u"], st["v"], st["theta"], st["tracer"], st["phy"]],
            width=cfg.olx,
            itemsize=self._ps_itemsizes,
            wire_dtypes=self._ps_wire_dtypes,
        )
        t_after_exch = rt.elapsed

        ps_flops = np.zeros(self.decomp.n_ranks)
        u_star_t, v_star_t = [], []
        for r in range(self.decomp.n_ranks):
            fc = FlopCounter()
            u, v = st["u"][r], st["v"][r]
            theta, tracer = st["theta"][r], st["tracer"][r]
            b = cfg.eos.buoyancy(theta, tracer)
            fc.add("eos", cfg.eos.flops_per_cell * theta.size)
            gu, gv, gth, gtr, wflux, phy = compute_g_terms(
                r, self.grid, u, v, theta, tracer, b, cfg.dynamics, fc
            )
            if cfg.physics is not None:
                if hasattr(cfg.physics, "set_time"):
                    cfg.physics.set_time(st.time)
                kwargs = self._physics_kwargs(r)
                cfg.physics.apply_tendencies(
                    r, self.grid, u, v, theta, tracer, gu, gv, gth, gtr, fc, **kwargs
                )
            st["gu"][r][...] = gu
            st["gv"][r][...] = gv
            st["gtheta"][r][...] = gth
            st["gtracer"][r][...] = gtr
            st["phy"][r][...] = phy
            eps = cfg.dynamics.ab2_eps
            if self.nh_operator is not None:
                # non-hydrostatic: w is prognostic (vertical momentum)
                from repro.gcm.nonhydrostatic import compute_g_w

                ut, vt = op.transports(u, v, self.grid, r, fc)
                gw = compute_g_w(
                    r, self.grid, st["w"][r], ut, vt, wflux, b,
                    cfg.dynamics.ah, cfg.dynamics.az, fc,
                )
                gw_ab = ab2_extrapolate(gw, st["gw_prev"][r], eps, self._first_step, fc)
                st["gw"][r][...] = gw
                st["w"][r][...] = (st["w"][r] + cfg.dt * gw_ab) * self.grid.mask_c[r]
            else:
                st["w"][r][...] = op.w_from_flux(wflux, self.grid, r, fc)
            gu_ab = ab2_extrapolate(gu, st["gu_prev"][r], eps, self._first_step, fc)
            gv_ab = ab2_extrapolate(gv, st["gv_prev"][r], eps, self._first_step, fc)
            us, vs = provisional_velocity(
                r, self.grid, u, v, gu_ab, gv_ab, phy, cfg.dt, fc
            )
            u_star_t.append(us)
            v_star_t.append(vs)
            ps_flops[r] = fc.total
        rt.charge_compute(ps_flops, phase="ps")
        stats.flops_ps = int(ps_flops.sum())
        t_after_ps = rt.elapsed

        # ---- DS: elliptic surface-pressure solve ------------------------
        cg_res, ds_counter = self._solve_surface_pressure(u_star_t, v_star_t)
        stats.ni = cg_res.iterations
        stats.cg_residual = cg_res.residual
        stats.cg_converged = cg_res.converged
        stats.flops_ds = ds_counter.total
        self._charge_ds(cg_res, ds_counter)
        t_after_ds = rt.elapsed

        # ---- correction + tracer step -----------------------------------
        eps = cfg.dynamics.ab2_eps
        for r in range(self.decomp.n_ranks):
            fc = FlopCounter()
            u_new, v_new = correct_velocity(
                r, self.grid, u_star_t[r], v_star_t[r], st["ps"][r], cfg.dt, fc
            )
            st["u"][r][...] = u_new
            st["v"][r][...] = v_new
            gth_ab = ab2_extrapolate(
                st["gtheta"][r], st["gtheta_prev"][r], eps, self._first_step, fc
            )
            gtr_ab = ab2_extrapolate(
                st["gtracer"][r], st["gtracer_prev"][r], eps, self._first_step, fc
            )
            mask = self.grid.mask_c[r]
            st["theta"][r][...] = (st["theta"][r] + cfg.dt * gth_ab) * mask
            st["tracer"][r][...] = (st["tracer"][r] + cfg.dt * gtr_ab) * mask
            fc.add("tracer_step", 4 * st["theta"][r].size)
            if cfg.physics is not None and hasattr(cfg.physics, "convective_adjustment"):
                stats.mixed_cells += cfg.physics.convective_adjustment(
                    st["theta"][r], self.grid, r, fc
                )
            ps_flops[r] = fc.total
        rt.charge_compute(ps_flops, phase="ps")
        stats.flops_ps += int(ps_flops.sum())

        # ---- non-hydrostatic 3-D projection (optional) -------------------
        if self.nh_operator is not None:
            t_before_nh = rt.elapsed
            self._solve_nonhydrostatic(stats)
            stats.t_nh = rt.elapsed - t_before_nh

        stats.t_ps_exch = t_after_exch - t0
        stats.t_ps_compute = t_after_ps - t_after_exch
        stats.t_ds = t_after_ds - t_after_ps
        stats.t_step = rt.elapsed - t0

        st.swap_g_terms()
        self._first_step = False
        st.time += cfg.dt
        st.step_count += 1
        self.history.append(stats)
        if rt.metrics is not None:
            rt.metrics.end_step(ni=stats.ni, step=st.step_count)
        return stats

    def run(self, n_steps: int) -> List[StepStats]:
        """Advance ``n_steps`` time steps; returns their stats."""
        return [self.step() for _ in range(n_steps)]

    # ------------------------------------------------------------------

    def _physics_kwargs(self, rank: int) -> dict:
        if self.is_atmosphere:
            sst = self.coupling.get("sst")
            return {"sst": sst[rank] if sst is not None else None}
        kwargs = {}
        for key, name in (("taux", "taux"), ("tauy", "tauy"), ("theta_surf", "theta_surf")):
            fieldlist = self.coupling.get(name)
            if fieldlist is not None:
                kwargs[key] = fieldlist[rank]
        return kwargs

    def _cg_hooks(self, decomp):
        """Solver communication hooks for the precision config, for a
        CG running on ``decomp``: a wire-quantizing global sum when the
        gsum stream is float32, a wire-casting exchange when the
        pressure halo payload is.  ``(None, None)`` — the solver's
        cost-free defaults — whenever the config leaves those wires at
        the seed's float64."""
        gsum_hook = None
        if self._gsum_nbytes == 4:

            def gsum_hook(partials):
                quantized = quantize_gsum(partials, np.float32)
                return float(np.float32(_default_gsum(quantized)))

        exch_hook = None
        if self._solver_wire is not None:
            wire = self._solver_wire

            def exch_hook(field_groups):
                for f in field_groups:
                    exchange_halos(decomp, f, width=1, wire_dtype=wire)

        return gsum_hook, exch_hook

    def _solve_surface_pressure(self, u_star_t, v_star_t) -> tuple[CGResult, FlopCounter]:
        """Assemble RHS on the DS decomposition and run the PCG."""
        fc = FlopCounter()
        # depth-integrate on the PS tiles (3-D work, charged to PS ranks
        # via the returned counter split in _charge_ds)
        uints, vints = [], []
        for r in range(self.decomp.n_ranks):
            ui, vi = self.elliptic_ps_integrate(r, u_star_t[r], v_star_t[r], fc)
            uints.append(ui)
            vints.append(vi)
        # regrid PS -> DS through shared memory
        g_ui = self._hx_ps.gather_global(uints)
        g_vi = self._hx_ps.gather_global(vints)
        ds_ui = self._hx_ds.scatter_global(g_ui)
        ds_vi = self._hx_ds.scatter_global(g_vi)
        exchange_halos(self.ds_decomp, ds_ui, width=1, wire_dtype=self._solver_wire)
        exchange_halos(self.ds_decomp, ds_vi, width=1, wire_dtype=self._solver_wire)
        rhs = self.elliptic.rhs_from_transport(ds_ui, ds_vi, self.config.dt, fc)
        operator = self.elliptic
        if self._cg_dtype == np.float32:
            operator = CastingOperator(self.elliptic, self._cg_dtype)
            rhs = [b.astype(self._cg_dtype) for b in rhs]
        gsum_hook, exch_hook = self._cg_hooks(self.ds_decomp)
        result = preconditioned_cg(
            operator,
            rhs,
            fc,
            tol=self.config.cg_tol,
            maxiter=self.config.cg_maxiter,
            global_sum=gsum_hook,
            exchange=exch_hook,
        )
        # regrid solution DS -> PS and refresh halos (shared memory)
        g_ps = self._hx_ds.gather_global(result.x)
        ps_tiles = self._hx_ps.scatter_global(g_ps)
        exchange_halos(self.decomp, ps_tiles)
        for r in range(self.decomp.n_ranks):
            self.state["ps"][r][...] = ps_tiles[r]
        return result, fc

    def elliptic_ps_integrate(self, rank, u_star, v_star, fc):
        """Depth-integrate provisional velocities on a PS tile (m^2/s)."""
        drf = self.grid.drf[:, None, None]
        ui = np.sum(u_star * self.grid.hfac_w[rank] * drf, axis=0)
        vi = np.sum(v_star * self.grid.hfac_s[rank] * drf, axis=0)
        fc.add("depth_integrate", 4 * u_star.size)
        return ui, vi

    def _solve_nonhydrostatic(self, stats: StepStats) -> None:
        """3-D Poisson projection of (u, v, w) to non-divergence.

        Same communication structure as DS — one two-field halo-1
        exchange and two global sums per iteration — but over 3-D
        fields on the PS decomposition.
        """
        from repro.gcm.cg import preconditioned_cg as pcg

        cfg = self.config
        st = self.state
        fc = FlopCounter()
        u, v, w = st["u"], st["v"], st["w"]
        prec = self.precision
        for name, f in (("u", u), ("v", v), ("w", w)):
            exchange_halos(
                self.decomp, f, width=1, wire_dtype=prec.exchange_wire_dtype(name)
            )
        rhs = self.nh_operator.rhs_from_velocity(u, v, w, cfg.dt, fc)
        operator = self.nh_operator
        if self._cg_dtype == np.float32:
            operator = CastingOperator(self.nh_operator, self._cg_dtype)
            rhs = [b.astype(self._cg_dtype) for b in rhs]
        gsum_hook, exch_hook = self._cg_hooks(self.decomp)
        result = pcg(
            operator, rhs, fc, tol=cfg.cg_tol, maxiter=cfg.cg_maxiter,
            global_sum=gsum_hook, exchange=exch_hook,
        )
        for r in range(self.decomp.n_ranks):
            u2, v2, w2 = self.nh_operator.correct(
                r, u[r], v[r], w[r], result.x[r], cfg.dt, fc
            )
            u[r][...] = u2
            v[r][...] = v2
            w[r][...] = w2
        stats.ni_nh = result.iterations
        stats.flops_nh = fc.total
        stats.nh_converged = result.converged

        # charge: per iteration one 2-field 3-D halo-1 exchange + 2 gsums
        rt = self.runtime
        be = rt.backend
        ni = max(result.iterations, 1)
        per_iter = fc.total / ni / self.decomp.n_ranks
        interior = max(
            range(self.decomp.n_ranks),
            key=lambda r: sum(
                self.decomp.edge_bytes(nz=self.grid.nz, width=1, rank=r)
            ),
        )
        edges = self.decomp.edge_bytes(
            nz=self.grid.nz, width=1, itemsize=self._solver_itemsize, rank=interior
        )
        rt.sync()
        rt.charge_phase(
            compute=ni * per_iter / rt.machine.fds,
            exchange=ni * 2 * be.exchange_time(edges, mixmode=rt.mixmode, n_ranks=rt.n_ranks),
            gsum=ni * 2 * be.gsum_time(rt.n_nodes, self._gsum_nbytes, smp=rt.mixmode),
            flops=fc.total,
            n_exchanges=2 * ni,
            n_gsums=2 * ni,
            phase="nh",
        )

    def _charge_ds(self, cg_res: CGResult, counter: FlopCounter) -> None:
        """Charge the aggregated, globally-synchronous DS cost.

        Per iteration: max-tile compute at Fds, one 2-field width-1
        exchange, two global sums (Sections 4, 5.2).
        """
        rt = self.runtime
        be = rt.backend
        ni = max(cg_res.iterations, 1)
        n_ds_tiles = self.ds_decomp.n_ranks
        # per-iteration per-DS-tile compute time at Fds
        per_iter_flops = counter.total / ni / n_ds_tiles
        t_compute = ni * per_iter_flops / rt.machine.fds
        # one exchange of two 2-D fields per iteration (interior tile)
        interior = max(
            range(n_ds_tiles),
            key=lambda r: sum(self.ds_decomp.edge_bytes(nz=1, width=1, rank=r)),
        )
        edges = self.ds_decomp.edge_bytes(
            nz=1, width=1, itemsize=self._solver_itemsize, rank=interior
        )
        t_exch = ni * 2 * be.exchange_time(edges, mixmode=False)
        t_gsum = ni * 2 * be.gsum_time(rt.n_nodes, self._gsum_nbytes, smp=rt.mixmode)
        rt.sync()
        rt.charge_phase(
            compute=t_compute,
            exchange=t_exch,
            gsum=t_gsum,
            flops=counter.total,
            n_exchanges=2 * ni,
            n_gsums=2 * ni,
            phase="ds",
        )

    # -- diagnostics -----------------------------------------------------

    def mean_ni(self) -> float:
        """Mean DS solver iterations per step so far (the model's Ni)."""
        if not self.history:
            return 0.0
        return float(np.mean([h.ni for h in self.history]))

    def performance_breakdown(self, skip_first: bool = True) -> dict[str, float]:
        """Per-step averages of the measured phase times — the run's own
        Fig. 11-style parameters, directly comparable to the analytic
        performance model (eqs. 4-10).

        ``skip_first`` drops the forward-Euler spin-up step, whose
        solver cold start is unrepresentative (as in Section 5.3's
        steady-state accounting).
        """
        hist = self.history[1:] if skip_first and len(self.history) > 1 else self.history
        if not hist:
            return {}
        n = len(hist)
        ni = float(np.mean([h.ni for h in hist]))
        return {
            "steps": float(n),
            "ni": ni,
            "tps_exch": float(np.mean([h.t_ps_exch for h in hist])),
            "tps_compute": float(np.mean([h.t_ps_compute for h in hist])),
            "tds": float(np.mean([h.t_ds for h in hist])) / max(ni, 1.0),
            "t_step": float(np.mean([h.t_step for h in hist])),
            "flops_per_step": float(np.mean([h.flops_ps + h.flops_ds for h in hist])),
        }

    def surface_temperature(self) -> np.ndarray:
        """Global surface-level theta (SST for the ocean; lowest-level
        air temperature for the atmosphere)."""
        k = 0
        if self.config.physics is not None and hasattr(self.config.physics, "surface_level"):
            k = self.config.physics.surface_level(self.grid.nz)
        return self.state.to_global("theta")[k]
