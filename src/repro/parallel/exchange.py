"""The exchange primitive: functional halo fill across tiles.

Brings every tile's halo region into a consistent state with its
neighbours' interiors (paper Section 4, Fig. 5).  The fill runs in two
passes — x first over interior rows, then y over the *full* width
including the freshly-filled x halos — so corner cells receive correct
diagonal-neighbour data, which a 3x3 stencil in PS requires.

This module is purely functional (real NumPy data movement); virtual
communication time is charged by :class:`repro.parallel.runtime.LockstepRuntime`
using the interconnect cost models, mirroring how the paper separates
the primitive's semantics from its measured cost.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.parallel.tiling import Decomposition


def _build_plan(decomp: Decomposition, w: int) -> list:
    """Precompute the copy schedule of a width-``w`` exchange.

    Each entry is ``(dst_rank, dst_index, src_rank, src_index)`` with the
    index tuples ready for fancy-free slice assignment; executing the
    entries in order reproduces the two-pass fill exactly (x first over
    interior rows, then y over the full width including fresh x halos).
    """
    o = decomp.olx
    plan = []
    # Pass 1: x-direction (west/east), interior rows only.
    for r, t in enumerate(decomp.tiles):
        rows = slice(o, o + t.ny)
        wn = decomp.neighbor(r, "west")
        if wn is not None:
            nx_n = decomp.tiles[wn].nx
            plan.append((
                r, (Ellipsis, rows, slice(o - w, o)),
                wn, (Ellipsis, rows, slice(o + nx_n - w, o + nx_n)),
            ))
        en = decomp.neighbor(r, "east")
        if en is not None:
            plan.append((
                r, (Ellipsis, rows, slice(o + t.nx, o + t.nx + w)),
                en, (Ellipsis, rows, slice(o, o + w)),
            ))
    # Pass 2: y-direction (south/north), full x extent including x halos.
    for r, t in enumerate(decomp.tiles):
        cols = slice(o - w, o + t.nx + w)
        sn = decomp.neighbor(r, "south")
        if sn is not None:
            ny_n = decomp.tiles[sn].ny
            plan.append((
                r, (Ellipsis, slice(o - w, o), cols),
                sn, (Ellipsis, slice(o + ny_n - w, o + ny_n), cols),
            ))
        nn = decomp.neighbor(r, "north")
        if nn is not None:
            plan.append((
                r, (Ellipsis, slice(o + t.ny, o + t.ny + w), cols),
                nn, (Ellipsis, slice(o, o + w), cols),
            ))
    return plan


def exchange_halos(
    decomp: Decomposition,
    fields: Sequence[np.ndarray],
    width: Optional[int] = None,
    wire_dtype=None,
) -> None:
    """Fill halo regions of every tile of one field, in place.

    ``fields[rank]`` is the tile-local array of rank ``rank`` (2-D
    ``(ny+2o, nx+2o)`` or 3-D ``(nz, ny+2o, nx+2o)``).  ``width`` can
    request a narrower exchange than the allocated halo (e.g. width-1
    exchanges in DS within width-3 halos).

    ``wire_dtype`` models a reduced-precision wire payload: every copied
    halo slab passes through that dtype before landing, exactly as if it
    had been packed at 4 bytes per element and upcast by the receiver
    (see :mod:`repro.precision`).  The pass-2 corner re-send of pass-1
    halo data is safe because the cast is idempotent (float32 values
    survive a float64 round trip bit-exactly).  ``None`` keeps the
    seed's cast-free copies.

    The copy schedule depends only on the decomposition and the width,
    so it is built once and cached on the decomposition — the CG solver
    calls this at every iteration, making the per-call slice arithmetic
    a measured hot path.
    """
    if len(fields) != decomp.n_ranks:
        raise ValueError(
            f"expected {decomp.n_ranks} tile arrays, got {len(fields)}"
        )
    o = decomp.olx
    w = o if width is None else width
    if w < 0:
        # A negative width would flip the halo slices into interior
        # ranges and silently overwrite interior cells.
        raise ValueError(f"exchange width must be >= 0, got {w}")
    if w > o:
        raise ValueError(f"exchange width {w} exceeds halo {o}")
    if w == 0:
        return
    cache = getattr(decomp, "_exchange_plans", None)
    if cache is None:
        cache = decomp._exchange_plans = {}
    plan = cache.get(w)
    if plan is None:
        plan = cache[w] = _build_plan(decomp, w)
    if wire_dtype is None:
        for dst, di, src, si in plan:
            fields[dst][di] = fields[src][si]
    else:
        wire_dtype = np.dtype(wire_dtype)
        for dst, di, src, si in plan:
            fields[dst][di] = fields[src][si].astype(wire_dtype)


class HaloExchanger:
    """Convenience binding of a decomposition for repeated exchanges.

    With a ``backend`` (tier name or :class:`repro.backend.CommBackend`)
    each exchange also accumulates its critical-rank communication cost in
    :attr:`elapsed` — the standalone-benchmark counterpart of the
    virtual time :class:`~repro.parallel.runtime.LockstepRuntime`
    charges; without one the exchanger stays a free data mover.
    """

    def __init__(
        self,
        decomp: Decomposition,
        backend=None,
        mixmode: bool = False,
        itemsize: int = 8,
    ) -> None:
        self.decomp = decomp
        self.count = 0
        if backend is not None:
            from repro.backend import resolve_backend

            backend = resolve_backend(backend)
        self.backend = backend
        self.mixmode = mixmode
        self.itemsize = itemsize
        #: Accumulated critical-rank exchange seconds (0.0 without backend).
        self.elapsed = 0.0

    def __call__(self, fields: Sequence[np.ndarray], width: Optional[int] = None) -> None:
        exchange_halos(self.decomp, fields, width)
        self.count += 1
        if self.backend is not None:
            nz = 1 if fields[0].ndim == 2 else fields[0].shape[0]
            self.elapsed += self.backend.exchange_time(
                self.decomp.critical_edge_bytes(
                    nz=nz, width=width, itemsize=self.itemsize
                ),
                mixmode=self.mixmode,
                n_ranks=self.decomp.n_ranks,
            )

    def gather_global(self, fields: Sequence[np.ndarray]) -> np.ndarray:
        """Assemble the global (interior-only) field from the tiles."""
        sample = fields[0]
        o = self.decomp.olx
        if sample.ndim == 2:
            out = np.zeros((self.decomp.ny, self.decomp.nx), dtype=sample.dtype)
        else:
            out = np.zeros(
                (sample.shape[0], self.decomp.ny, self.decomp.nx), dtype=sample.dtype
            )
        for r, t in enumerate(self.decomp.tiles):
            out[..., t.y0 : t.y0 + t.ny, t.x0 : t.x0 + t.nx] = fields[r][
                ..., o : o + t.ny, o : o + t.nx
            ]
        return out

    def scatter_global(self, global_field: np.ndarray, dtype=None) -> list[np.ndarray]:
        """Split a global field into tile-local arrays (halos unfilled)."""
        o = self.decomp.olx
        out = []
        for t in self.decomp.tiles:
            if global_field.ndim == 2:
                arr = t.alloc2d(dtype or global_field.dtype)
            else:
                arr = t.alloc3d(global_field.shape[0], dtype or global_field.dtype)
            arr[..., o : o + t.ny, o : o + t.nx] = global_field[
                ..., t.y0 : t.y0 + t.ny, t.x0 : t.x0 + t.nx
            ]
            out.append(arr)
        return out
