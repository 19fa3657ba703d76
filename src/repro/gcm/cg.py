"""Pre-conditioned conjugate-gradient solver for the DS phase.

The paper (Section 4): "A pre-conditioned conjugate-gradient iterative
solver is employed in this phase.  [...] the iterative solver requires
an exchange to be applied to two fields at every solver iteration [and]
two global sum operations are required at every solver iteration."

This implementation preserves exactly that communication structure: per
iteration one width-1 exchange of two 2-D fields (the search direction
and the residual) and two scalar global sums (``p.Ap`` and ``r.z``),
routed through injectable hooks so the lockstep runtime can charge
virtual time while the numerics stay bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.gcm.operators import FlopCounter
from repro.gcm.pressure import EllipticOperator
from repro.parallel.exchange import exchange_halos
from repro.parallel.globalsum import butterfly_global_sum


#: When True, stacked-capable operators are routed through the per-tile
#: reference loop anyway.  The backend equivalence tests flip this to
#: prove the fast path bit-exact, and ``benchmarks/bench_backend.py``
#: uses it to reconstruct the seed revision's solver cost live.
FORCE_REFERENCE = False


@dataclass
class CGResult:
    """Outcome of one elliptic solve."""

    x: List[np.ndarray]
    iterations: int
    residual: float  # final |r|_2
    initial_residual: float
    converged: bool


def _interior_dot(decomp, a_tiles, b_tiles, flops: FlopCounter) -> List[float]:
    """Per-rank partial dot products over tile interiors.

    Works for 2-D tiles (the surface-pressure solve) and 3-D tiles (the
    non-hydrostatic solve): the interior slices select the last two
    (lateral) axes.
    """
    out = []
    for r, t in enumerate(decomp.tiles):
        sl = (Ellipsis,) + t.interior
        out.append(float(np.sum(a_tiles[r][sl] * b_tiles[r][sl])))
        flops.add("cg_dot", 2 * a_tiles[r][sl].size)
    return out


def _interior_dot_stacked(decomp, a: np.ndarray, b: np.ndarray, flops: FlopCounter) -> List[float]:
    """Per-rank partial dot products on a leading-rank-axis tile stack.

    Bit-identical to :func:`_interior_dot` on the unstacked tiles: the
    product commutes with slicing, and the per-rank reduction runs over
    a contiguous buffer of the same shape and C order as the per-tile
    product array, so NumPy's pairwise summation visits elements in the
    same order.
    """
    sl = (Ellipsis,) + decomp.tiles[0].interior
    prod = np.ascontiguousarray((a * b)[sl])
    flops.add("cg_dot", 2 * prod.size)
    return np.sum(prod.reshape(len(prod), -1), axis=1).tolist()


def _default_gsum(partials: Sequence[float]) -> float:
    """Cost-free butterfly sum, folding like the runtime's ``GlobalSummer``."""
    return butterfly_global_sum(partials)[0][0]


def preconditioned_cg(
    operator: EllipticOperator,
    rhs: List[np.ndarray],
    flops: FlopCounter,
    tol: float = 1e-10,
    maxiter: int = 200,
    global_sum: Optional[Callable[[Sequence[float]], float]] = None,
    exchange: Optional[Callable[[List[List[np.ndarray]]], None]] = None,
    x0: Optional[List[np.ndarray]] = None,
) -> CGResult:
    """Solve ``A x = rhs`` with Jacobi-preconditioned CG.

    ``global_sum(partials) -> float`` and ``exchange([fields])`` default
    to cost-free local reductions; the runtime injects charged versions.
    Convergence: relative 2-norm residual reduction below ``tol``.

    Operators exposing ``apply_stacked``/``precondition_stacked`` (the
    in-tree elliptic and non-hydrostatic operators do) take the stacked
    fast path: every tile lives in one ``(n_ranks, ...)`` array so each
    CG iteration is a handful of NumPy calls instead of a Python loop
    per tile — bit-identical results, an order less interpreter
    overhead on the paper's small tiles.
    """
    decomp = operator.decomp
    gsum = global_sum or _default_gsum
    exch = exchange or (lambda fields: [exchange_halos(decomp, f, width=1) for f in fields])
    if (
        not FORCE_REFERENCE
        and hasattr(operator, "apply_stacked")
        and hasattr(operator, "precondition_stacked")
    ):
        return _cg_stacked(operator, rhs, flops, tol, maxiter, gsum, exch, x0)

    x = [np.array(t, copy=True) for t in x0] if x0 is not None else [np.zeros_like(b) for b in rhs]
    r = [np.array(b, copy=True) for b in rhs]
    if x0 is not None:
        exch([x])
        ax = operator.apply(x, flops)
        for i in range(len(r)):
            r[i] -= ax[i]
    z = operator.precondition(r, flops)
    p = [np.array(zi, copy=True) for zi in z]
    # Convergence is monitored in the preconditioned norm sqrt(|r.z|),
    # relative to ||rhs|| in the same norm (so warm starts converge
    # immediately); no extra reduction beyond the paper's two global
    # sums per iteration.
    rz = gsum(_interior_dot(decomp, r, z, flops))
    if x0 is None:
        initial = math.sqrt(abs(rz))
    else:
        zb = operator.precondition(rhs, flops)
        initial = math.sqrt(abs(gsum(_interior_dot(decomp, rhs, zb, flops))))
    if initial == 0.0:
        return CGResult(x, 0, 0.0, 0.0, True)
    if math.sqrt(abs(rz)) <= tol * initial:
        return CGResult(x, 0, math.sqrt(abs(rz)), initial, True)

    resid = initial
    it = 0
    for it in range(1, maxiter + 1):
        # One width-1 exchange of two 2-D fields per iteration.
        exch([p, r])
        q = operator.apply(p, flops)
        pq = gsum(_interior_dot(decomp, p, q, flops))  # global sum #1
        if pq == 0.0:
            break
        alpha = rz / pq
        for i in range(len(x)):
            x[i] += alpha * p[i]
            r[i] -= alpha * q[i]
            flops.add("cg_update", 4 * x[i].size)
        z = operator.precondition(r, flops)
        rz_new = gsum(_interior_dot(decomp, r, z, flops))  # global sum #2
        resid = math.sqrt(abs(rz_new))
        if resid <= tol * initial:
            rz = rz_new
            break
        beta = rz_new / rz
        rz = rz_new
        for i in range(len(p)):
            p[i] = z[i] + beta * p[i]
            flops.add("cg_update", 2 * p[i].size)

    exch([x])  # final halo refresh so grad(ps) is valid everywhere
    return CGResult(x, it, resid, initial, resid <= tol * initial)


def _cg_stacked(
    operator,
    rhs: List[np.ndarray],
    flops: FlopCounter,
    tol: float,
    maxiter: int,
    gsum: Callable[[Sequence[float]], float],
    exch: Callable[[List[List[np.ndarray]]], None],
    x0: Optional[List[np.ndarray]],
) -> CGResult:
    """The stacked-tile CG fast path (see :func:`preconditioned_cg`).

    All vectors live in ``(n_ranks, ...)`` stacks; the injected
    ``exchange`` still receives per-tile views into those stacks, so
    halo fills mutate the stacked storage in place and the charged
    runtime hooks work unchanged.  Every arithmetic statement mirrors
    the per-tile path elementwise (``beta * p + z`` is commuted into
    the in-place update, which IEEE addition permits), so results are
    bit-identical to the reference loop.
    """
    decomp = operator.decomp
    r_st = np.stack(rhs)
    x_st = np.stack(x0) if x0 is not None else np.zeros_like(r_st)
    x_views = list(x_st)
    if x0 is not None:
        exch([x_views])
        r_st -= operator.apply_stacked(x_st, flops)
    z_st = operator.precondition_stacked(r_st, flops)
    p_st = z_st.copy()
    rz = gsum(_interior_dot_stacked(decomp, r_st, z_st, flops))
    if x0 is None:
        initial = math.sqrt(abs(rz))
    else:
        rhs_st = np.stack(rhs)
        zb = operator.precondition_stacked(rhs_st, flops)
        initial = math.sqrt(abs(gsum(_interior_dot_stacked(decomp, rhs_st, zb, flops))))
    if initial == 0.0:
        return CGResult(list(x_st), 0, 0.0, 0.0, True)
    if math.sqrt(abs(rz)) <= tol * initial:
        return CGResult(list(x_st), 0, math.sqrt(abs(rz)), initial, True)

    p_views = list(p_st)
    r_views = list(r_st)
    resid = initial
    it = 0
    for it in range(1, maxiter + 1):
        # One width-1 exchange of two fields per iteration.
        exch([p_views, r_views])
        q_st = operator.apply_stacked(p_st, flops)
        pq = gsum(_interior_dot_stacked(decomp, p_st, q_st, flops))  # global sum #1
        if pq == 0.0:
            break
        alpha = rz / pq
        x_st += alpha * p_st
        r_st -= alpha * q_st
        flops.add("cg_update", 4 * x_st.size)
        z_st = operator.precondition_stacked(r_st, flops)
        rz_new = gsum(_interior_dot_stacked(decomp, r_st, z_st, flops))  # global sum #2
        resid = math.sqrt(abs(rz_new))
        if resid <= tol * initial:
            rz = rz_new
            break
        beta = rz_new / rz
        rz = rz_new
        p_st *= beta
        p_st += z_st
        flops.add("cg_update", 2 * p_st.size)

    exch([x_views])  # final halo refresh so grad(ps) is valid everywhere
    return CGResult(list(x_st), it, resid, initial, resid <= tol * initial)
