"""Forward and inverse Fourier transforms on the supported groups.

Conventions (matching :mod:`gmult.groups`):

* forward:  ``fhat(xi) = integral f(g) xi(g)^* dg``  (entrywise conjugate
  transpose of the representation matrix under the normalized Haar measure);
* inverse:  ``f(g) = sum_xi d_xi trace(xi(g) fhat(xi))``.

On the torus this is the ordinary Fourier series with characters
``exp(2 pi i k . x)``, evaluated by the FFT between the samples and the
symbol's dense label box.  On SU(2) the transform separates over the Euler
product grid: two phase sums (uniform angles) and a Gauss-Legendre sum
against the little-d tables, each table built where it is read and dropped
after.  The inverse transform's label stage (the blocks against the
little-d tables) is the forward phase stage of the kernel on any grid that
resolves it; the difference route reads it there.

Exactness accounting: for a function carrying a ``declared_band``
certificate ``b``, computed coefficients at labels of band ``t`` are exact
whenever ``b + t <= grid.exact_total_band``; the returned symbol's
``exact_band`` records the largest such ``t``, capped by the function's own
``exact_band`` (the symbol's, for the samples of :func:`fourier_inverse`),
so a round trip never raises a certificate.  Functions without a
certificate produce symbols with ``exact_band = -1`` (stored values are the
discrete quadrature transform, certified exact nowhere).
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Optional, Sequence, Tuple

import numpy as np

from .errors import BandOverflowError
from .grids import GroupFunction, GroupGrid
from .groups import bracket_powers, irrep_dimension, japanese_bracket
from .symbols import MatrixSymbol, TorusSymbol, resize_box


def _su2_phase_tables(grid: GroupGrid, tmax: int, sign: int):
    """Phase matrices ``e^{sign i u phi / 2}`` and ``e^{sign i v psi / 2}``,
    shaped ``(twice-weight, node)``: the phi tables as one matrix per
    twice-weight parity ``p``, rows ``u = -U_p, -U_p + 2, ..., U_p`` with
    ``U_p`` the largest ``u <= tmax`` of parity ``p``, and the psi table
    with the rows of both parities stacked in that order.  The forward
    tables (``sign = +1``) are divided by their node counts."""
    u = np.arange(-tmax, tmax + 1)
    ephi = np.exp(sign * 0.5j * np.outer(u, grid.phis))
    epsi = np.exp(sign * 0.5j * np.outer(u, grid.psis))
    if sign > 0:
        ephi, epsi = ephi / grid.phis.size, epsi / grid.psis.size
    rows = (slice(tmax % 2, None, 2), slice(1 - tmax % 2, None, 2))
    return [ephi[r] for r in rows], np.concatenate([epsi[r] for r in rows])


def _plane_slice(plane: np.ndarray, t: int) -> slice:
    """Rows of the twice-weights ``-t..t`` in a plane of their parity."""
    top = plane.shape[0] - 1
    return slice((top - t) // 2, (top + t) // 2 + 1)


def _su2_forward_stages(grid: GroupGrid, samples: np.ndarray, tmax: int):
    """Collapse the phi and psi axes: ``A[u, v, a] = (1/(Nphi Npsi))
    sum_{j,k} f(phi_j, theta_a, psi_k) e^{i u phi_j / 2} e^{i v psi_k / 2}``
    at the twice-weight pairs a label reads, ``u = v = p (mod 2)``, as the
    two planes ``p = 0, 1`` laid out like :func:`_su2_phase_tables`."""
    ephis, epsi = _su2_phase_tables(grid, tmax, +1)
    B = np.tensordot(samples.reshape(grid.shape), epsi,
                     axes=(2, 1))                   # (phi, theta, v)
    n0 = ephis[0].shape[0]
    return [np.tensordot(ephi, B[:, :, cols].transpose(0, 2, 1),
                         axes=(1, 0))               # (u, v, theta)
            for ephi, cols in zip(ephis, (slice(0, n0), slice(n0, None)))]


def _su2_theta_sums(grid: GroupGrid, planes, labels: Sequence[int],
                    table: Optional[Callable[[int], np.ndarray]] = None
                    ) -> Iterator[Tuple[int, np.ndarray]]:
    """The theta quadrature against the little-d tables: ``(t, fhat)`` with
    ``fhat_{mn} = sum_a w_a/2 d^t_{nm}(theta_a) A[u=2n, v=2m, a]`` for each
    label, from phase planes ``(u, v, ..., theta)`` with any batch axes
    between the twice-weights and theta; ``fhat`` carries the batch axes
    first.  ``table(t)`` gives the little-d table at the grid's theta nodes
    (default: built for the label and dropped after it)."""
    table = table or grid.little_d
    w2 = grid.theta_weights / 2.0
    for t in labels:
        plane = planes[t % 2]
        at = _plane_slice(plane, t)
        batch = plane.shape[2:-1]
        block = plane[at, at].reshape(t + 1, t + 1, -1, w2.size)
        # one batched matrix-vector product per (n, m) over theta
        weights = (table(t) * w2[:, None, None]).transpose(1, 2, 0)
        sums = np.matmul(block, weights[..., None])[..., 0]     # (n, m, b)
        yield t, sums.transpose(2, 1, 0).reshape(batch + (t + 1, t + 1))


def _su2_label_planes(grid: GroupGrid, sym: MatrixSymbol, tmax: int,
                      table: Optional[Callable[[int], np.ndarray]] = None):
    """The label stage of the inverse transform, ``H[u, a, v] = sum_t
    (t + 1) d^t_{mn}(theta_a) sigma_t[n, m]`` at ``u = 2m``, ``v = 2n``,
    laid out like :func:`_su2_phase_tables` through ``tmax``, theta in the
    middle; built through the support (higher labels reach the rows kept)
    and cropped.  Where the grid's phase sums resolve ``|u| <= tmax``
    against the symbol's twice-weights, it is the kernel's forward stage.
    ``table`` as in :func:`_su2_theta_sums`."""
    table = table or grid.little_d
    top = max(tmax, sym.support_band)
    H = [np.zeros((n, grid.thetas.size, n), dtype=complex)
         for n in (top + 1 - top % 2, top + top % 2)]
    for t, mat in sym.entries.items():
        at = _plane_slice(H[t % 2], t)
        H[t % 2][at, :, at] += (t + 1) * (table(t).transpose(1, 0, 2)
                                          * mat.T[:, None, :])
    keep = [_plane_slice(Hp, tmax - (tmax - p) % 2) for p, Hp in enumerate(H)]
    return [Hp[at, :, at] for Hp, at in zip(H, keep)]


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
                   float(grid.exact_total_band - f.declared_band),
                   float(f.exact_band))
    if model.kind == "su2":
        planes = _su2_forward_stages(grid, f.samples, band)
        return MatrixSymbol(model, dict(_su2_theta_sums(grid, planes,
                                                        range(band + 1))),
                            exact_band=cert)
    table = np.fft.fftshift(np.fft.fftn(f.samples.reshape(grid.shape)))
    return TorusSymbol(model, resize_box(table, band) / f.samples.size, cert)


def fourier_inverse(sym, grid: GroupGrid) -> GroupFunction:
    """Evaluate ``sum_xi d_xi trace(xi(g) sigma(xi))`` at the grid nodes."""
    if sym.support_band > grid.max_label_band:
        raise BandOverflowError(
            f"symbol support band {sym.support_band} exceeds the grid's "
            f"representable band {grid.max_label_band}")
    if grid.model.kind == "su2":
        # f = sum_t d_t sum_{mn} e^{-i m phi} d^t_{mn} e^{-i n psi} sigma_{nm}:
        # the phi stage of each parity, (phi, theta, v), side by side in v
        ephis, epsi = _su2_phase_tables(grid, sym.support_band, -1)
        planes = _su2_label_planes(grid, sym, sym.support_band)
        mid = np.concatenate([np.tensordot(ephi, H, axes=(0, 0))
                              for ephi, H in zip(ephis, planes)], axis=2)
        samples = np.tensordot(mid, epsi, axes=(2, 0)).reshape(-1)
    else:
        table = np.fft.ifftshift(resize_box(sym.table, grid.band))
        samples = (np.fft.ifftn(table) * table.size).reshape(-1)
    return GroupFunction(grid, samples, sym.support_band, sym.exact_band)


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
    """Quadrature L2 norm of sampled values.  On SU(2): ``|f|^2`` averaged
    over the phi and psi nodes, then summed against the theta weights
    (which total 2); on the torus, the mean over the nodes.  No per-node
    weight array is formed."""
    grid = f.grid
    power = np.abs(f.samples.reshape(grid.shape)) ** 2
    if grid.model.kind == "su2":
        total = float(power.mean(axis=(0, 2)) @ grid.theta_weights) / 2.0
    else:
        total = float(power.mean())
    return math.sqrt(max(total, 0.0))
