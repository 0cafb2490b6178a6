"""Forward and inverse Fourier transforms on the supported groups.

Conventions (matching :mod:`gmult.groups`):

* forward:  ``fhat(xi) = integral f(g) xi(g)^* dg``  (entrywise conjugate
  transpose of the representation matrix under the normalized Haar measure);
* inverse:  ``f(g) = sum_xi d_xi trace(xi(g) fhat(xi))``.

On the torus this is the ordinary Fourier series with characters
``exp(2 pi i k . x)``, evaluated by the FFT between the samples and the
symbol's dense label box.  On SU(2) the transform separates over the Euler
product grid (Kostelec & Rockmore 2008): two phase sums (uniform angles)
and a Gauss-Legendre sum in theta, which reads no Wigner table and makes
no eigensolve.  The eigenvectors ``V`` of ``J_x`` at label ``t`` are the
spin-``t/2`` power of those at label 1 (:func:`gmult.groups.spin_powers`),
and ``d^t_{mn}(theta) = e^{-i pi (m - n)/2} sum_k V_mk V_nk e^{-i theta k}``
(Risbo 1996), so per twice-weight parity one GEMM moves theta between the
nodes and the modes ``k``, and each label is an ``O(t^3)`` sum against the
real ``V_mk V_nk``: ``O(B^4)`` in all, where per-label tables cost
``O(B^5)``.  Each transform walks the spin powers once, for both parities,
and holds one parity's cube and one samples array at a time: the forward
forms its phase planes in slabs of ``v`` columns, and the inverse adds
each parity's stages into the samples.

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
from typing import Optional

import numpy as np

from .errors import BandOverflowError
from .grids import GroupFunction, GroupGrid
from .groups import (bracket_powers, irrep_dimension, japanese_bracket,
                     spin_powers)
from .symbols import MatrixSymbol, TorusSymbol, _rows, resize_box


def _su2_forward_plane(grid: GroupGrid, samples: np.ndarray,
                       ephi: np.ndarray, epsi: np.ndarray) -> np.ndarray:
    """Collapse the phi and psi axes at one twice-weight parity: ``A[u, v,
    a] = (1/(Nphi Npsi)) sum_{j,k} f(phi_j, theta_a, psi_k) e^{i u phi_j /
    2} e^{i v psi_k / 2}``, shaped ``(u, v, theta)``, from that parity's
    forward tables of :func:`_su2_parities` (``epsi`` may be a slab of its
    rows ``v``).  The psi stage reads the
    samples transposed in place, as BLAS's transposed operand."""
    f = samples.reshape(grid.shape).transpose(0, 2, 1)  # (phi, psi, theta)
    B = np.matmul(epsi, f)                              # (phi, v, theta)
    return np.tensordot(ephi, B, axes=(1, 0))


#: The eigenvectors of ``J_x`` at label 1, column ``k`` at the eigenvalue
#: ``k - 1/2``; their spin powers are those of every label
_JX_BASIS = np.array([[-1.0, 1.0], [1.0, 1.0]]) / math.sqrt(2.0)

#: ``e^{-i pi (m - n) / 2}`` by ``(m - n) mod 4``, the ``-i`` of odd
#: ``m - n`` moved into the sine mode
_QUARTER_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])


def _su2_parities(grid: GroupGrid, top: int, sign: int):
    """Per twice-weight parity ``p``, in the order the stages run, ``(p,
    ephi, epsi, cos, sin, kernels)``.  ``ephi``, ``epsi``: the phase
    matrices ``e^{sign i u phi / 2}``, ``e^{sign i v psi / 2}`` shaped
    ``(twice-weight, node)`` at the rows ``u = -U, -U + 2, .., U``, ``U``
    the largest ``u <= top`` of parity ``p``, divided by their node counts
    when forward (``sign = +1``).  ``cos``, ``sin``: the theta modes
    ``(node, k)`` at ``2k = p, p + 2, .., U``: ``cos(k theta)`` doubled but
    at ``k = 0``, and ``2 sin(k theta)``.  ``kernels``: ``(t, V, signs)``
    at the labels ``t = p, p + 2, .., top``, all from one spin-power walk:
    a copy of the columns of label ``t``'s ``J_x`` eigenbasis (the spin
    power of ``_JX_BASIS``) at its eigenvalues ``k >= 0``, and ``signs[m,
    n]``; the terms ``k`` and ``-k`` of the eigenbasis sum fold into
    ``d^t_{mn}(theta) = signs[m, n] sum_k V_mk V_nk c_k(theta)``, ``c_k``
    the cosine mode for even ``m - n`` and the sine mode for odd: the
    kernel is real.  The parity with fewer twice-weights ``|u| <= top``
    runs first, so that the larger one's blocks, allocated after the
    smaller one's are freed, stay above the allocator's mmap threshold and
    go back to the system when freed, not to the heap."""
    u = np.arange(-top, top + 1)
    ephi = np.exp(sign * 0.5j * np.outer(u, grid.phis))
    epsi = np.exp(sign * 0.5j * np.outer(u, grid.psis))
    if sign > 0:
        ephi, epsi = ephi / grid.phis.size, epsi / grid.psis.size
    ar = np.arange(top + 1)
    signs = _QUARTER_SIGNS[(ar[:, None] - ar) % 4]
    labels = [(t, U[:, (t + 1) // 2:].copy(), signs[:t + 1, :t + 1])
              for t, U in enumerate(spin_powers(_JX_BASIS, top))]
    for p in (1 - top % 2, top % 2):
        rows = slice((top + p) % 2, None, 2)
        kappa = np.arange(p, top + 1, 2)
        arg = 0.5 * np.outer(grid.thetas, kappa)
        yield (p, ephi[rows], epsi[rows],
               np.cos(arg) * np.where(kappa == 0, 1.0, 2.0),
               2.0 * np.sin(arg), labels[p::2])


def _checkerboard_matmul(cube: np.ndarray, even: np.ndarray, odd: np.ndarray,
                         out: np.ndarray) -> np.ndarray:
    """``out[i, j] = cube[i, j] @ (even if i - j is even else odd)``: in a
    parity plane ``i - j`` has the parity of ``m - n``."""
    for a in (0, 1):
        for b in (0, 1):
            out[a::2, b::2] = cube[a::2, b::2] @ (odd if a != b else even)
    return out


def _su2_forward_labels(grid: GroupGrid, samples: np.ndarray, band: int):
    """The forward transform's blocks ``{t: fhat}`` through ``band`` on the
    ``J_x`` eigenbasis.  Per parity, the phase plane ``A[u, v, theta]`` of
    :func:`_su2_forward_plane` is formed in slabs of an eighth of the
    ``v`` columns, each starting at an even column so that it keeps the
    checkerboard of ``m - n``, and one GEMM per slab takes it to ``Q[u,
    v, k] = sum_a w_a/2 c_k(theta_a) A[u, v, a]``; each label is then
    ``fhat_{mn} = signs[n, m] sum_k V_nk V_mk Q[2n, 2m, k]``
    (:func:`_su2_parities`).  One parity's ``Q`` and one slab's plane are
    held at a time, beside the one samples array."""
    w2 = grid.theta_weights[:, None] / 2.0
    out = {}
    for p, ephi, epsi, cos, sin, kernels in _su2_parities(grid, band, +1):
        n = ephi.shape[0]
        even, odd = w2 * cos, w2 * sin
        Q = np.empty((n, n, cos.shape[1]), dtype=complex)
        step = 2 * max(1, -(-n // 16))         # even, and > 0 at n = 0
        for v in range(0, n, step):
            _checkerboard_matmul(_su2_forward_plane(
                grid, samples, ephi, epsi[v:v + step]), even, odd,
                Q[:, v:v + step])
        for t, V, signs in kernels:
            at = _rows(n - 1, t)
            sums = np.einsum("nk,mk,nmk->nm", V, V, Q[at, at, :V.shape[1]])
            out[t] = (signs * sums).T
        del Q
    return {t: out[t] for t in range(band + 1)}


def _su2_inverse_stages(grid: GroupGrid, sym: MatrixSymbol) -> np.ndarray:
    """The inverse transform's samples ``(phi, theta, psi)`` on the ``J_x``
    eigenbasis.  Per parity, each label adds ``(t + 1) signs[m, n] V_mk
    V_nk sigma_t[n, m]`` into ``G[u = 2m, v = 2n, k]``; one GEMM takes
    ``k`` to theta, giving ``H[u, a, v] = sum_t (t + 1) d^t_{mn}(theta_a)
    sigma_t[n, m]``, and the phi and psi stages sum ``e^{-i m phi}`` and
    ``e^{-i n psi}``.  Each parity runs end to end into the samples: the
    first one's psi stage allocates them, the second adds its psi stage a
    quarter of the theta rows at a time.  One parity's ``G`` and one
    samples array are held at a time."""
    top, samples = sym.support_band, None
    for p, ephi, epsi, cos, sin, kernels in _su2_parities(grid, top, -1):
        n = ephi.shape[0]
        G = np.zeros((n, n, cos.shape[1]), dtype=complex)
        for t, V, signs in kernels:
            if t in sym.entries:
                at = _rows(n - 1, t)
                rows = (t + 1) * signs * sym.entries[t].T
                # one row m at a time: no (t + 1)^3 temporary
                for m, row in enumerate(rows):
                    G[at.start + m, at, :V.shape[1]] += (row[:, None]
                                                         * (V[m] * V))
        H = np.empty((n, grid.thetas.size, n), dtype=complex)
        _checkerboard_matmul(G, cos.T, sin.T, H.transpose(0, 2, 1))
        del G
        mid = np.tensordot(ephi, H, axes=(0, 0))          # (phi, theta, v)
        del H
        if samples is None:
            samples = np.tensordot(mid, epsi, axes=(2, 0))
        else:
            step = -(-grid.thetas.size // 4)
            for a in range(0, grid.thetas.size, step):
                samples[:, a:a + step] += np.tensordot(mid[:, a:a + step],
                                                       epsi, axes=(2, 0))
        del mid
    return samples


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
        return MatrixSymbol(model, _su2_forward_labels(grid, f.samples, band),
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
        samples = _su2_inverse_stages(grid, sym).reshape(-1)
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
    power = np.abs(f.samples.reshape(grid.shape))
    power **= 2
    if grid.model.kind == "su2":
        total = float(power.mean(axis=(0, 2)) @ grid.theta_weights) / 2.0
    else:
        total = float(power.mean())
    return math.sqrt(max(total, 0.0))
