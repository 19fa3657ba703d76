"""The DS block: the 2-D elliptic surface-pressure equation (eq. 3).

In the hydrostatic limit the surface pressure satisfies

    div_h ( H grad_h p_s ) = div_h ( <U*> ) / dt

where ``<U*>`` is the depth integral of the provisional velocity.  With
``p_s`` found, the correction ``v^(n+1) = v* - dt grad p_s`` makes the
depth-integrated flow non-divergent (the continuity relation eq. 2).

The operator is assembled in finite-volume form: the face conductances
``Hw dyG / dxC`` and ``Hs dxG / dyC`` vanish through closed faces, so
irregular geometry (Fig. 4) is handled naturally and the matrix is
symmetric.  Land cells carry an identity row.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.gcm import operators as op
from repro.gcm.grid import Grid
from repro.gcm.operators import FlopCounter


class EllipticOperator:
    """div(H grad .) on one decomposition, tile-parallel."""

    def __init__(self, grid: Grid) -> None:
        self.grid = grid
        self.decomp = grid.decomp
        # Face conductances and open-column depths per tile.
        self.hw: List[np.ndarray] = []  # open depth of west faces
        self.hs: List[np.ndarray] = []
        self.cw: List[np.ndarray] = []  # conductance Hw * dyG / dxC
        self.cs: List[np.ndarray] = []
        self.diag: List[np.ndarray] = []
        self.wet: List[np.ndarray] = []
        drf = grid.drf[:, None, None]
        for r, _t in enumerate(self.decomp.tiles):
            hw = np.sum(grid.hfac_w[r] * drf, axis=0)
            hs = np.sum(grid.hfac_s[r] * drf, axis=0)
            cw = hw * grid.dyg[r] / grid.dxc[r]
            cs = hs * grid.dxg[r] / grid.dyc[r]
            self.hw.append(hw)
            self.hs.append(hs)
            self.cw.append(cw)
            self.cs.append(cs)
            wet = grid.depth_c[r] > 0
            self.wet.append(wet)
            d = -(cw + op.xp(cw) + cs + op.yp(cs))
            # land rows are identity so CG ignores them
            self.diag.append(np.where(wet, np.where(d != 0, d, -1.0), -1.0))

    def _stacked_coeffs(self):
        """Tile coefficients stacked on a leading rank axis (cached)."""
        st = getattr(self, "_coeff_stack", None)
        if st is None:
            st = self._coeff_stack = (
                np.stack(self.cw),
                np.stack(self.cs),
                np.stack(self.wet),
                np.stack(self.diag),
            )
        return st

    def apply_stacked(self, p: np.ndarray, flops: FlopCounter) -> np.ndarray:
        """A p on a ``(n_ranks, ny+2o, nx+2o)`` tile stack (halos current).

        Elementwise identical to :meth:`apply` slice by slice: the
        lateral shifts act on the trailing axes, so stacking only
        batches the NumPy calls — the CG fast path's whole point.
        """
        cw, cs, wet, _ = self._stacked_coeffs()
        fx = cw * (p - op.xm(p))
        fy = cs * (p - op.ym(p))
        ap = (op.xp(fx) - fx) + (op.yp(fy) - fy)
        ap = np.where(wet, ap, -p)
        flops.add("elliptic_apply", 10 * p.size)
        return ap

    def precondition_stacked(self, r: np.ndarray, flops: FlopCounter) -> np.ndarray:
        """Jacobi on the tile stack; matches :meth:`precondition`."""
        flops.add("precondition", r.size)
        return r / self._stacked_coeffs()[3]

    def apply(self, p_tiles: List[np.ndarray], flops: FlopCounter) -> List[np.ndarray]:
        """A p = div(H grad p) per tile (halos of p must be current).

        ~10 flops per column.
        """
        out = []
        for r, p in enumerate(p_tiles):
            fx = self.cw[r] * (p - op.xm(p))
            fy = self.cs[r] * (p - op.ym(p))
            ap = (op.xp(fx) - fx) + (op.yp(fy) - fy)
            ap = np.where(self.wet[r], ap, -p)  # identity on land (A = -I)
            out.append(ap)
            flops.add("elliptic_apply", 10 * p.size)
        return out

    def precondition(self, r_tiles: List[np.ndarray], flops: FlopCounter) -> List[np.ndarray]:
        """Jacobi: z = r / diag(A).  1 flop per column."""
        out = []
        for r, arr in enumerate(r_tiles):
            out.append(arr / self.diag[r])
            flops.add("precondition", arr.size)
        return out

    def rhs_from_transport(
        self,
        uint_tiles: List[np.ndarray],
        vint_tiles: List[np.ndarray],
        dt: float,
        flops: FlopCounter,
    ) -> List[np.ndarray]:
        """RHS = div(<U*>)/dt in finite-volume form (~8 flops/column).

        ``uint``/``vint`` are depth-integrated provisional velocities
        (m^2/s) at u/v points with current halos.
        """
        out = []
        for r, (ui, vi) in enumerate(zip(uint_tiles, vint_tiles)):
            div = op.column_flux_divergence(ui, vi, self.grid, r)
            rhs = np.where(self.wet[r], div / dt, 0.0)
            out.append(rhs)
            flops.add("elliptic_rhs", 8 * ui.size)
        return out
