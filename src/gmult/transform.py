"""Forward and inverse Fourier transforms on the supported groups.

Conventions (matching :mod:`gmult.groups`):

* forward:  ``fhat(xi) = integral f(g) xi(g)^* dg``  (entrywise conjugate
  transpose of the representation matrix under the normalized Haar measure);
* inverse:  ``f(g) = sum_xi d_xi trace(xi(g) fhat(xi))``.

On the torus this is the ordinary Fourier series with characters
``exp(2 pi i k . x)``, evaluated by the FFT between the samples and the
symbol's dense label box.  On SU(2) the transform separates over the Euler
product grid: two phase sums (uniform angles) and a Gauss-Legendre sum
against the little-d tables.

Exactness accounting: for a function carrying a ``declared_band``
certificate ``b``, computed coefficients at labels of band ``t`` are exact
whenever ``b + t <= grid.exact_total_band``; the returned symbol's
``exact_band`` records the largest such ``t``.  Functions without a
certificate produce symbols with ``exact_band = -1`` (stored values are the
discrete quadrature transform, certified exact nowhere).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

import numpy as np

from .errors import BandOverflowError
from .grids import GroupFunction, GroupGrid
from .groups import bracket_powers, irrep_dimension, japanese_bracket
from .symbols import MatrixSymbol, TorusSymbol, resize_box


def _su2_phase_tables(grid: GroupGrid, tmax: int, sign: int):
    """Phase matrices ``e^{sign i u phi / 2}`` and ``e^{sign i u psi / 2}``,
    shaped ``(u, node)``, at all twice-weights ``|u| <= tmax``; the forward
    tables (``sign = +1``) are divided by their node counts."""
    key = ("phases", sign, tmax)
    if key not in grid._misc:
        u = np.arange(-tmax, tmax + 1)
        ephi = np.exp(sign * 0.5j * np.outer(u, grid.phis))
        epsi = np.exp(sign * 0.5j * np.outer(u, grid.psis))
        if sign > 0:
            ephi, epsi = ephi / grid.phis.size, epsi / grid.psis.size
        grid._misc[key] = (ephi, epsi)
    return grid._misc[key]


def _su2_forward_stages(grid: GroupGrid, samples: np.ndarray, tmax: int) -> np.ndarray:
    """Collapse the phi and psi axes: returns ``A[u, a, v]`` with
    ``A = (1/(Nphi Npsi)) sum_{j,k} f(phi_j, theta_a, psi_k)
    e^{i u phi_j / 2} e^{i v psi_k / 2}`` for twice-weights ``u, v``."""
    F = samples.reshape(grid.shape)
    ephi, epsi = _su2_phase_tables(grid, tmax, +1)
    A1 = np.tensordot(ephi, F, axes=(1, 0))          # (u, theta, psi)
    return np.tensordot(A1, epsi, axes=(2, 1))       # (u, theta, v)


def _su2_forward(grid: GroupGrid, samples: np.ndarray,
                 labels: Sequence[int]) -> Dict[int, np.ndarray]:
    if not labels:
        return {}
    tmax = max(labels)
    A = _su2_forward_stages(grid, samples, tmax)
    w2 = grid.theta_weights / 2.0
    out: Dict[int, np.ndarray] = {}
    for t in labels:
        at = slice(tmax - t, tmax + t + 1, 2)         # twice-weights -t..t
        # fhat_{mn} = sum_a w_a/2 d^t_{nm}(theta_a) A[u=2n, a, v=2m]: the
        # product over (m, n, a), laid out in C order so that the reshape is
        # a view, then one matrix-vector product with w/2
        prod = np.multiply(A[at, :, at].transpose(2, 0, 1),
                           grid.little_d(t).transpose(2, 1, 0), order="C")
        out[t] = (prod.reshape((t + 1) ** 2, -1) @ w2).reshape(t + 1, t + 1)
    return out


def _su2_inverse(grid: GroupGrid, sym: MatrixSymbol) -> np.ndarray:
    if not sym.entries:
        return np.zeros(grid.node_count, dtype=complex)
    tmax = max(sym.entries)
    H = np.zeros((2 * tmax + 1, grid.thetas.size, 2 * tmax + 1), dtype=complex)
    for t, mat in sym.entries.items():
        at = slice(tmax - t, tmax + t + 1, 2)
        # f = sum_t d_t sum_{mn} e^{-i m phi} d^t_{mn} e^{-i n psi} sigma_{nm}
        H[at, :, at] += (t + 1) * (grid.little_d(t).transpose(1, 0, 2)
                                   * mat.T[:, None, :])
    ephi, epsi = _su2_phase_tables(grid, tmax, -1)
    out = np.tensordot(ephi, H, axes=(0, 0))         # (phi, theta, v)
    out = np.tensordot(out, epsi, axes=(2, 0))       # (phi, theta, psi)
    return out.reshape(-1)


def fourier_forward(f: GroupFunction, band: Optional[int] = None):
    """Transform sampled function values into the matrix coefficients at
    every label through ``band`` (default: the grid's representable band).

    On the torus the result is the box of radius ``band``: the FFT table,
    re-centred on the origin and cropped.  A band beyond the grid's
    representable band raises BandOverflowError (those labels alias onto
    lower ones).
    """
    grid = f.grid
    model = grid.model
    band = grid.max_label_band if band is None else int(band)
    if band > grid.max_label_band:
        raise BandOverflowError(
            f"band {band} is beyond the grid's representable band "
            f"{grid.max_label_band}")
    if f.declared_band is None:
        cert = -1.0
    else:
        cert = min(float(grid.max_label_band),
                   float(grid.exact_total_band - f.declared_band))
    if model.kind == "su2":
        return MatrixSymbol(model, _su2_forward(grid, f.samples, range(band + 1)),
                            exact_band=cert)
    table = np.fft.fftshift(np.fft.fftn(f.samples.reshape(grid.shape)))
    return TorusSymbol(model, resize_box(table, band) / f.samples.size, cert)


def fourier_inverse(sym, grid: GroupGrid) -> GroupFunction:
    """Evaluate ``sum_xi d_xi trace(xi(g) sigma(xi))`` at the grid nodes."""
    if sym.support_band > grid.max_label_band and sym.entries:
        raise BandOverflowError(
            f"symbol support band {sym.support_band} exceeds the grid's "
            f"representable band {grid.max_label_band}")
    if grid.model.kind == "su2":
        samples = _su2_inverse(grid, sym)
    else:
        table = np.fft.ifftshift(resize_box(sym.table, grid.band))
        samples = (np.fft.ifftn(table) * table.size).reshape(-1)
    return GroupFunction(grid, samples, declared_band=sym.support_band)


def plancherel_norm(sym) -> float:
    """sqrt( sum_xi d_xi ||sigma(xi)||_HS^2 ) over the stored labels."""
    return sobolev_norm(sym, 0.0)


def sobolev_norm(sym, order: float) -> float:
    """Plancherel norm with weights ``<xi>^order`` on each block."""
    if sym.model.kind == "torus":
        w = bracket_powers(sym.model, sym.radius, order)
        return math.sqrt(float(np.sum(w * w * np.abs(sym.table) ** 2)))
    total = 0.0
    for lb, mat in sym.entries.items():
        d = irrep_dimension(sym.model, lb)
        w = japanese_bracket(sym.model, lb) ** order
        total += d * (w * w) * float(np.sum(np.abs(mat) ** 2))
    return math.sqrt(total)


def function_norm_l2(f: GroupFunction) -> float:
    """Quadrature L2 norm of sampled values."""
    return math.sqrt(max(float(np.sum(f.grid.weights * np.abs(f.samples) ** 2)), 0.0))
