"""Finite-volume C-grid operators with analytic flop accounting.

All operators act on tile-local arrays (``(nz, J, I)`` or ``(J, I)``)
using wrapped shifted views (slice-copy equivalents of ``np.roll``).
The shift wraps at the tile edge, so
each stencil application invalidates one more ring of the halo; with the
paper's halo width of three and the deepest kernel chain here being two
applications, interiors (and the innermost halo ring) remain exact
between exchanges — precisely the "overcomputation" contract of
Section 4.

Flop accounting is *analytic* (operation count per cell, by inspection
of each expression), matching how the paper obtains ``Nps`` and ``Nds``
("determined by inspecting the model code", Section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np


@dataclass
class FlopCounter:
    """Accumulates analytic flop counts keyed by kernel."""

    total: int = 0
    by_kernel: Dict[str, int] = field(default_factory=dict)

    def add(self, kernel: str, flops: float) -> None:
        """Accumulate ``flops`` against ``kernel``."""
        f = int(flops)
        self.total += f
        self.by_kernel[kernel] = self.by_kernel.get(kernel, 0) + f

    def merge(self, other: "FlopCounter") -> None:
        """Fold another counter's totals into this one."""
        self.total += other.total
        for k, v in other.by_kernel.items():
            self.by_kernel[k] = self.by_kernel.get(k, 0) + v


# -- shifted views ---------------------------------------------------------
#
# Semantically these are np.roll, but written as two slice copies into a
# preallocated output: same wrap-at-tile-edge behaviour, bit-identical
# values, and none of np.roll's index arithmetic — these shifts are the
# innermost operation of every stencil below and dominate the GCM's
# host-side cost.


def xm(a: np.ndarray) -> np.ndarray:
    """Value at i-1 (wraps at tile edge; halo absorbs)."""
    out = np.empty_like(a)
    out[..., 1:] = a[..., :-1]
    out[..., 0] = a[..., -1]
    return out


def xp(a: np.ndarray) -> np.ndarray:
    """Value at i+1."""
    out = np.empty_like(a)
    out[..., :-1] = a[..., 1:]
    out[..., -1] = a[..., 0]
    return out


def ym(a: np.ndarray) -> np.ndarray:
    """Value at j-1."""
    out = np.empty_like(a)
    out[..., 1:, :] = a[..., :-1, :]
    out[..., 0, :] = a[..., -1, :]
    return out


def yp(a: np.ndarray) -> np.ndarray:
    """Value at j+1."""
    out = np.empty_like(a)
    out[..., :-1, :] = a[..., 1:, :]
    out[..., -1, :] = a[..., 0, :]
    return out


def face_divergence(fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    """Fused ``(xp(fx) - fx) + (yp(fy) - fy)`` — the flux-divergence
    pattern of every FV operator here, computed with one temporary and
    the same per-element operation order as the unfused expression."""
    div = xp(fx)
    div -= fx
    tmp = yp(fy)
    tmp -= fy
    div += tmp
    return div


# -- transports -------------------------------------------------------------


def transports(u, v, grid, rank, flops: FlopCounter):
    """Volume transports through west and south faces (m^3/s).

    ``uTrans[k,j,i] = u * dyG * drF * hFacW``; similarly vTrans.
    3 flops/cell each.
    """
    drf = grid.drf[:, None, None]
    ut = u * grid.dyg[rank][None] * drf * grid.hfac_w[rank]
    vt = v * grid.dxg[rank][None] * drf * grid.hfac_s[rank]
    flops.add("transports", 6 * u.size)
    return ut, vt


def vertical_transport(ut, vt, flops: FlopCounter):
    """Volume flux through cell *top* faces from continuity.

    Integrating from the bottom (no-flux floor):
    ``wFlux[k] = wFlux[k+1] + hdiv[k]`` where ``hdiv`` is the horizontal
    flux divergence of layer k; a positive wFlux[k] is upward through
    the top of layer k.  4 flops/cell.
    """
    hdiv = face_divergence(ut, vt)
    # layer-k volume budget: hdiv[k] + wflux[k] - wflux[k+1] = 0 with
    # wflux[nz] = 0 at the floor  =>  wflux[k] = -sum_{k'>=k} hdiv[k']
    wflux = -np.flip(np.cumsum(np.flip(hdiv, 0), axis=0), 0)
    flops.add("w_continuity", 4 * ut.size)
    return wflux


def w_from_flux(wflux, grid, rank, flops: FlopCounter):
    """Vertical velocity at top faces: w = wFlux / rA (1 flop/cell)."""
    w = wflux / grid.ra[rank][None]
    flops.add("w_diag", wflux.size)
    return w


# -- depth-integrated (barotropic) flow -------------------------------------


def depth_integrate(u, v, grid, rank, flops: FlopCounter):
    """<u> = sum_k u hFacW drF, likewise <v> (m^2/s); ~4 flops/cell."""
    drf = grid.drf[:, None, None]
    ui = np.sum(u * grid.hfac_w[rank] * drf, axis=0)
    vi = np.sum(v * grid.hfac_s[rank] * drf, axis=0)
    flops.add("depth_integrate", 4 * u.size)
    return ui, vi


def column_flux_divergence(ui, vi, grid, rank):
    """Volume-flux divergence (m^3/s) of a depth-integrated flow."""
    return face_divergence(ui * grid.dyg[rank], vi * grid.dxg[rank])


# -- tracer advection/diffusion ---------------------------------------------


def advect_tracer(c, ut, vt, wflux, grid, rank, flops: FlopCounter, scheme: str = "centered"):
    """Flux-form advection tendency of tracer c.

    ``scheme="centered"`` — 2nd-order centered fluxes (the model's
    default; non-diffusive but dispersive).  ``scheme="upwind"`` —
    1st-order donor-cell fluxes (monotone: creates no new extrema, at
    the price of numerical diffusion).  Returns
    Gc_adv = -div(flux)/vol over open cells.  ~16-20 flops/cell.
    """
    if scheme == "centered":
        fx = ut * 0.5 * (c + xm(c))
        fy = vt * 0.5 * (c + ym(c))
    elif scheme == "upwind":
        fx = np.where(ut >= 0, ut * xm(c), ut * c)
        fy = np.where(vt >= 0, vt * ym(c), vt * c)
    else:
        raise ValueError(f"unknown advection scheme {scheme!r}")
    # vertical: interface k carries flux between layers k-1 and k
    nz = c.shape[0]
    fz = np.zeros_like(c)
    if nz > 1:
        if scheme == "upwind":
            # upward flux (w > 0) carries the lower cell's value
            fz[1:] = np.where(
                wflux[1:] >= 0, wflux[1:] * c[1:], wflux[1:] * c[:-1]
            )
        else:
            fz[1:] = wflux[1:] * 0.5 * (c[1:] + c[:-1])
    # top face of layer 0 (surface): rigid lid, no advective flux
    div = face_divergence(fx, fy)
    # vertical net out of layer k: out through its top minus in through
    # its bottom (the floor, fz[nz], carries nothing)
    net_vert = fz.copy()
    net_vert[:-1] -= fz[1:]
    vol = grid.hfac_c[rank] * grid.drf[:, None, None] * grid.ra[rank][None]
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(vol > 0, -(div + net_vert) / np.where(vol > 0, vol, 1.0), 0.0)
    flops.add("advect_tracer", 16 * c.size)
    return g


def laplacian_diffusion(c, kh, grid, rank, flops: FlopCounter):
    """Horizontal Laplacian diffusion tendency ``kh * div(grad c)``.

    Masked FV form: fluxes through closed faces vanish.  ~14 flops/cell.
    """
    drf = grid.drf[:, None, None]
    dy_dx = grid.dyg[rank][None] / grid.dxc[rank][None]
    dx_dy = grid.dxg[rank][None] / grid.dyc[rank][None]
    fx = kh * dy_dx * (c - xm(c)) * grid.hfac_w[rank] * drf
    fy = kh * dx_dy * (c - ym(c)) * grid.hfac_s[rank] * drf
    div = face_divergence(fx, fy)
    vol = grid.hfac_c[rank] * drf * grid.ra[rank][None]
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(vol > 0, div / np.where(vol > 0, vol, 1.0), 0.0)
    flops.add("laplacian_diffusion", 14 * c.size)
    return g


def vertical_diffusion(c, kz, grid, rank, flops: FlopCounter):
    """Vertical diffusion tendency ``d/dz (kz dc/dz)``.  ~8 flops/cell."""
    nz = c.shape[0]
    if nz == 1:
        return np.zeros_like(c)
    drf = grid.drf
    drc = 0.5 * (drf[:-1] + drf[1:])  # center-to-center spacing
    flux = np.zeros_like(c)  # flux through top face of layer k (k>=1)
    flux[1:] = kz * (c[:-1] - c[1:]) / drc[:, None, None]
    mask = grid.hfac_c[rank]
    flux[1:] *= (mask[:-1] > 0) * (mask[1:] > 0)
    g = np.zeros_like(c)
    g[:] = flux / drf[:, None, None]  # in through top
    g[:-1] -= flux[1:] / drf[:-1, None, None]  # out through bottom
    flops.add("vertical_diffusion", 8 * c.size)
    return g


# -- momentum ----------------------------------------------------------------


def advect_u(u, ut, vt, wflux, grid, rank, flops: FlopCounter):
    """Flux-form advection tendency of u (west-face points).

    Zonal fluxes at cell centers, meridional at SW corners, vertical at
    u-column interfaces.  ~24 flops/cell.
    """
    # zonal momentum flux at cell centers: mean transport times mean u
    fzon = 0.25 * (ut + xp(ut)) * (u + xp(u))
    # meridional flux at corners (i-1/2, j-1/2)
    fmer = 0.25 * (vt + xm(vt)) * (u + ym(u))
    # vertical flux at u-point interfaces
    nz = u.shape[0]
    fver = np.zeros_like(u)
    if nz > 1:
        wz = 0.5 * (wflux + xm(wflux))
        fver[1:] = 0.5 * wz[1:] * (u[1:] + u[:-1])
    net = (fzon - xm(fzon)) + (yp(fmer) - fmer)
    net_v = fver.copy()
    net_v[:-1] -= fver[1:]
    vol_u = (
        grid.hfac_w[rank]
        * grid.drf[:, None, None]
        * 0.5
        * (grid.ra[rank] + xm(grid.ra[rank]))[None]
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(vol_u > 0, -(net + net_v) / np.where(vol_u > 0, vol_u, 1.0), 0.0)
    flops.add("advect_u", 24 * u.size)
    return g


def advect_v(v, ut, vt, wflux, grid, rank, flops: FlopCounter):
    """Flux-form advection tendency of v (south-face points).  ~24 f/cell."""
    fzon = 0.25 * (ut + ym(ut)) * (v + xm(v))  # at corners
    fmer = 0.25 * (vt + yp(vt)) * (v + yp(v))  # at centers
    nz = v.shape[0]
    fver = np.zeros_like(v)
    if nz > 1:
        wz = 0.5 * (wflux + ym(wflux))
        fver[1:] = 0.5 * wz[1:] * (v[1:] + v[:-1])
    net = (xp(fzon) - fzon) + (fmer - ym(fmer))
    net_v = fver.copy()
    net_v[:-1] -= fver[1:]
    vol_v = (
        grid.hfac_s[rank]
        * grid.drf[:, None, None]
        * 0.5
        * (grid.ra[rank] + ym(grid.ra[rank]))[None]
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(vol_v > 0, -(net + net_v) / np.where(vol_v > 0, vol_v, 1.0), 0.0)
    flops.add("advect_v", 24 * v.size)
    return g


def coriolis(u, v, grid, rank, flops: FlopCounter):
    """Coriolis tendencies (+f v at u-points, -f u at v-points).

    Energy-conserving 4-point averages.  ~14 flops/cell.
    """
    fc = grid.fc[rank][None]
    v_at_u = 0.25 * (v + yp(v) + xm(v) + xm(yp(v)))
    u_at_v = 0.25 * (u + xp(u) + ym(u) + ym(xp(u)))
    f_u = 0.5 * (fc + xm(fc))
    f_v = 0.5 * (fc + ym(fc))
    gu = f_u * v_at_u * (grid.hfac_w[rank] > 0)
    gv = -f_v * u_at_v * (grid.hfac_s[rank] > 0)
    flops.add("coriolis", 14 * u.size)
    return gu, gv


def metric_terms(u, v, grid, rank, flops: FlopCounter):
    """Spherical metric tendencies: +u v tan(phi)/a, -u^2 tan(phi)/a.

    ~10 flops/cell.
    """
    a = grid.c.radius
    tan_lat = np.tan(np.deg2rad(grid.lat_c[rank]))[None]
    v_at_u = 0.25 * (v + yp(v) + xm(v) + xm(yp(v)))
    u_at_v = 0.25 * (u + xp(u) + ym(u) + ym(xp(u)))
    gu = (u * v_at_u) * tan_lat / a * (grid.hfac_w[rank] > 0)
    gv = -(u_at_v**2) * tan_lat / a * (grid.hfac_s[rank] > 0)
    flops.add("metric", 10 * u.size)
    return gu, gv


def viscosity_u(u, ah, az, grid, rank, flops: FlopCounter, ah4: float = 0.0):
    """Horizontal Laplacian (+ optional biharmonic) + vertical viscosity
    for u.  Biharmonic dissipation ``-ah4 lap(lap(u))`` is the standard
    scale-selective choice: it damps grid-scale noise while leaving the
    large-scale circulation nearly untouched.  ~20-34 flops/cell.
    """
    g = laplacian_points(u, ah, grid.hfac_w[rank], grid, rank)
    if ah4 > 0.0:
        lap = laplacian_points(u, 1.0, grid.hfac_w[rank], grid, rank)
        g -= laplacian_points(lap, ah4, grid.hfac_w[rank], grid, rank)
        flops.add("biharmonic_u", 14 * u.size)
    g += vertical_second_derivative(u, az, grid)
    flops.add("viscosity_u", 20 * u.size)
    return g


def viscosity_v(v, ah, az, grid, rank, flops: FlopCounter, ah4: float = 0.0):
    """Horizontal Laplacian (+ optional biharmonic) + vertical viscosity
    for v (see :func:`viscosity_u`).  ~20-34 flops/cell.
    """
    g = laplacian_points(v, ah, grid.hfac_s[rank], grid, rank)
    if ah4 > 0.0:
        lap = laplacian_points(v, 1.0, grid.hfac_s[rank], grid, rank)
        g -= laplacian_points(lap, ah4, grid.hfac_s[rank], grid, rank)
        flops.add("biharmonic_v", 14 * v.size)
    g += vertical_second_derivative(v, az, grid)
    flops.add("viscosity_v", 20 * v.size)
    return g


def laplacian_points(a, coef, mask, grid, rank):
    """Simple masked 5-point Laplacian at the field's own points."""
    dxc = grid.dxc[rank][None]
    dyc = grid.dyc[rank][None]
    open_pt = mask > 0
    lap = (
        (xp(a) - 2 * a + xm(a)) / dxc**2 + (yp(a) - 2 * a + ym(a)) / dyc**2
    )
    return coef * lap * open_pt


def vertical_second_derivative(a, coef, grid):
    """coef * d2a/dz2 with one-sided top/bottom differences."""
    nz = a.shape[0]
    if nz == 1 or coef == 0.0:
        return np.zeros_like(a)
    drf = grid.drf[:, None, None]
    out = np.zeros_like(a)
    out[1:-1] = (a[2:] - 2 * a[1:-1] + a[:-2]) / (drf[1:-1] ** 2)
    out[0] = (a[1] - a[0]) / (drf[0] ** 2)
    out[-1] = (a[-2] - a[-1]) / (drf[-1] ** 2)
    return coef * out


# -- pressure ----------------------------------------------------------------


def hydrostatic_pressure(b, grid, flops: FlopCounter):
    """Hydrostatic pressure potential from buoyancy (eq. in Section 3.1).

    ``dphi/dz = b`` integrated downward from the surface (phi(0) = 0):
    phi[k] = phi[k-1] - 0.5*(b[k-1] + b[k]) * drC.  ~4 flops/cell.
    """
    nz = b.shape[0]
    drf = grid.drf
    phy = np.zeros_like(b)
    phy[0] = -b[0] * 0.5 * drf[0]
    for k in range(1, nz):
        drc = 0.5 * (drf[k - 1] + drf[k])
        phy[k] = phy[k - 1] - 0.5 * (b[k - 1] + b[k]) * drc
    flops.add("hydrostatic", 4 * b.size)
    return phy


def pressure_gradient(p, grid, rank, flops: FlopCounter):
    """(-dp/dx at u-points, -dp/dy at v-points), masked.  ~6 flops/cell."""
    gx = -(p - xm(p)) / grid.dxc[rank][None] * (grid.hfac_w[rank] > 0)
    gy = -(p - ym(p)) / grid.dyc[rank][None] * (grid.hfac_s[rank] > 0)
    flops.add("pressure_gradient", 6 * p.size)
    return gx, gy
