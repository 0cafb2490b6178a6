"""Quadrature grids and sampled functions on the torus and SU(2).

A grid of band ``B`` integrates exactly every pointwise product of matrix
coefficients whose label bands sum to at most ``exact_total_band``:

* torus-n: ``(2B + 1)^n`` equispaced points with uniform weights; labels with
  ``|k|_inf <= B`` are representable and products with total band ``<= 2B``
  integrate exactly.
* SU(2): product grid in Euler angles with ``2B + 1`` equispaced phi nodes,
  ``B + 1`` Gauss-Legendre nodes in ``cos(theta)`` (`_leggauss`, the
  engine of the probe's radial rules too) and ``2 (2B + 1)``
  equispaced psi nodes over ``[0, 4pi)``.  Labels with ``twice_spin <= 2B``
  are representable; coefficient products with total twice_spin ``<= 4B``
  integrate exactly.  (The psi range and node count make the half-integer
  spins single-valued and exactly integrable alongside the integer ones.)

Weights are normalized so the constant function integrates to 1 (Haar
probability measure).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import BandOverflowError
from .groups import GroupModel, IrrepLabel, validate_label

_TWO_PI = 2.0 * math.pi
_FOUR_PI = 4.0 * math.pi


def _legendre_and_derivative(n: int, x: np.ndarray
                             ) -> Tuple[np.ndarray, np.ndarray]:
    """``P_n(x)`` and ``P_n'(x)`` by the three-term recurrence in
    difference form: with ``y = 1 - x`` and ``D_j = P_j - P_{j-1}``,
    ``(j + 1) D_{j+1} = j D_j - (2j + 1) y P_j``.  Next to ``x = 1`` the
    ``P_j`` crowd together, and the plain recurrence loses ~``n^2`` units
    of rounding to them; this form reads ``y``, exact from ``x = 1/2`` up,
    and adds small differences."""
    y = 1.0 - x
    p, dif, step = x.copy(), -y, np.empty_like(x)
    for j in range(1, n):
        # in place: dif <- (j dif - (2j + 1) y p) / (j + 1); p += dif
        np.multiply(y, p, out=step)
        step *= (2 * j + 1) / (j + 1)
        dif *= j / (j + 1)
        dif -= step
        p += dif
    return p, n * (y * p - dif) / (y * (1.0 + x))


def _horner(coefficients, h: np.ndarray) -> np.ndarray:
    """``sum_k coefficients[k] h^k`` by Horner's rule, each coefficient an
    array over the nodes: the operations of numpy's ``polyval``."""
    value = coefficients[-1] + h * 0
    for c in coefficients[-2::-1]:
        value = c + value * h
    return value


def _leggauss(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule of ``n >= 1`` nodes on ``[-1, 1]``, ascending:
    the theta rule of every SU(2) grid and the probe's radial rules, built
    on each call (the probe's fixed rules are `mollifier` constants).

    Tricomi's asymptotic nodes (with their ``n^-4`` term), on the positive
    half only (then mirrored), take one recurrence pass for ``P_n`` and
    ``P_n'``; the Legendre equation ``(1 - x^2) y'' - 2 x y' + n (n + 1) y
    = 0`` gives the higher derivatives, and Newton steps on that degree-7
    Taylor polynomial reach the rounding floor (Glaser, Liu & Rokhlin
    2007).  The weights are ``2 / ((1 - x^2) P_n'(x)^2)``, with the
    polynomial's ``P_n'`` at the final nodes and ``1 - x`` formed as the
    expansion node's ``1 - x`` (exact from ``x = 1/2`` up) less the Newton
    step: rounding the final node next to 1 would cost ~1e-10 of the
    outermost weights at 3,000 nodes.  Rules below ``n = 48`` (the
    smallest SU(2) radial rule) take two plain Newton passes first.  A pass
    is ``n`` vector steps of length ``n/2``, where a dense eigensolve costs
    ``O(n^3)``.
    """
    n = int(n)
    phi = math.pi / (4 * n + 2) * (4.0 * np.arange(1, (n + 3) // 2) - 1.0)
    x = (1.0 - (n - 1.0) / (8.0 * n ** 3)
         - (39.0 - 28.0 / np.sin(phi) ** 2) / (384.0 * n ** 4)) * np.cos(phi)
    for _ in range(0 if n >= 48 else 2):
        p, dp = _legendre_and_derivative(n, x)
        x = x - p / dp
    # Taylor coefficients c_k = P_n^(k)(x) / k!: (1 - x^2) (k + 1)
    # (k + 2) c_{k+2} = 2 (k + 1)^2 x c_{k+1} - (n (n + 1) - k (k + 1)) c_k
    c = list(_legendre_and_derivative(n, x))
    one_minus = 1.0 - x
    for k in range(6):
        c.append((2.0 * (k + 1) ** 2 * x * c[k + 1]
                  - (n * (n + 1.0) - k * (k + 1.0)) * c[k])
                 / ((k + 1) * (k + 2) * one_minus * (1.0 + x)))
    slope, h = [k * c[k] for k in range(1, len(c))], np.zeros_like(x)
    for _ in range(3):
        h -= _horner(c, h) / _horner(slope, h)
    dp = _horner(slope, h)
    w = 2.0 / ((one_minus - h) * (1.0 + x + h) * dp * dp)
    x = x + h
    mid = n % 2  # an odd rule holds the node 0 once
    return (np.concatenate((-x, x[::-1][mid:])),
            np.concatenate((w, w[::-1][mid:])))


@dataclass(frozen=True)
class GroupGrid:
    """Product quadrature grid on a group model: frozen data holding only
    its nodes and weights.  Phase and Wigner tables are built where they
    are read and never held here.
    """

    model: GroupModel
    band: int
    phis: Optional[np.ndarray] = None
    thetas: Optional[np.ndarray] = None
    theta_weights: Optional[np.ndarray] = None
    psis: Optional[np.ndarray] = None
    axis: Optional[np.ndarray] = None

    # -- shape bookkeeping ---------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        if self.model.kind == "su2":
            return (self.phis.size, self.thetas.size, self.psis.size)
        return (self.axis.size,) * self.model.n

    @property
    def node_count(self) -> int:
        return math.prod(self.shape)

    @property
    def max_label_band(self) -> int:
        """Largest label band the grid can represent without aliasing."""
        return 2 * self.band if self.model.kind == "su2" else self.band

    @property
    def exact_total_band(self) -> int:
        """Largest total band of a coefficient product integrated exactly."""
        return 4 * self.band if self.model.kind == "su2" else 2 * self.band

    @property
    def weights(self) -> np.ndarray:
        """Flattened quadrature weights summing to 1, built on each call
        (one per node)."""
        if self.model.kind == "su2":
            nphi, npsi = self.phis.size, self.psis.size
            w = np.broadcast_to(self.theta_weights[None, :, None] / (2.0 * nphi * npsi),
                                self.shape)
            return np.ascontiguousarray(w).reshape(-1)
        return np.full(self.node_count, 1.0 / self.node_count)

    # -- representation data ---------------------------------------------------

    def little_d(self, twice_spin: int) -> np.ndarray:
        """Little-d table at the theta nodes, shape ``(n_theta, d, d)``,
        built on each call.  Its readers are the SU(2) difference route,
        whose ``symbols._kernel_planes`` builds the kernel's label stage
        and phase weights against it and ``symbols._label_blocks`` each
        label's theta quadrature, and :meth:`coefficient_function`;
        the transforms read none (they take the ``J_x`` eigenbases as spin
        powers, :func:`gmult.groups.spin_powers`)."""
        from .groups import wigner_little_d

        if self.model.kind != "su2":
            raise ValueError("little_d tables exist only on SU(2) grids")
        return wigner_little_d(twice_spin, self.thetas)

    def coefficient_function(self, label: IrrepLabel, i: int = 0, j: int = 0) -> np.ndarray:
        """Samples of the matrix coefficient ``xi(g)_{ij}`` (0-based indices)."""
        label = validate_label(self.model, label)
        if self.model.kind == "su2":
            t = label
            if not (0 <= i <= t and 0 <= j <= t):
                raise ValueError(f"entry ({i}, {j}) outside a {t + 1}-dim representation")
            dcol = self.little_d(t)[:, i, j]
            ephi = np.exp(-0.5j * (2 * i - t) * self.phis)
            epsi = np.exp(-0.5j * (2 * j - t) * self.psis)
            return (ephi[:, None, None] * dcol[None, :, None] * epsi[None, None, :]).reshape(-1)
        if i != 0 or j != 0:
            raise ValueError("torus representations are one dimensional")
        out = np.ones(self.shape, dtype=complex)
        for d_axis, k in enumerate(label):
            phase = np.exp(2j * math.pi * k * self.axis)
            sh = [1] * self.model.n
            sh[d_axis] = self.axis.size
            out = out * phase.reshape(sh)
        return out.reshape(-1)


def build_grid(model: GroupModel, band: int) -> GroupGrid:
    """Build the product quadrature grid of the given band (``band >= 1``)."""
    if band < 1:
        raise ValueError(f"grid band must be a positive integer, got {band}")
    band = int(band)
    if model.kind == "su2":
        nphi = 2 * band + 1
        npsi = 2 * (2 * band + 1)
        ntheta = band + 1
        xs, ws = _leggauss(ntheta)
        thetas = np.arccos(xs)
        return GroupGrid(model=model, band=band,
                         phis=np.arange(nphi) * (_TWO_PI / nphi),
                         thetas=thetas, theta_weights=ws,
                         psis=np.arange(npsi) * (_FOUR_PI / npsi))
    npts = 2 * band + 1
    return GroupGrid(model=model, band=band, axis=np.arange(npts) / npts)


@dataclass
class GroupFunction:
    """Samples of a function on a grid.

    ``declared_band`` is the caller's certificate that the function is a
    linear combination of matrix coefficients with label band at most that
    value; ``None`` means no certificate (transforms of such samples are
    computed but carry no exactness guarantee).  ``exact_band`` is the
    certificate of the symbol the samples stand for, which a forward
    transform never exceeds.
    """

    grid: GroupGrid
    samples: np.ndarray
    declared_band: Optional[int] = None
    exact_band: float = math.inf

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=complex).reshape(-1)
        if self.samples.size != self.grid.node_count:
            raise ValueError(
                f"got {self.samples.size} samples for a grid of {self.grid.node_count} nodes")
        if self.declared_band is not None:
            self.declared_band = int(self.declared_band)
            if self.declared_band > self.grid.max_label_band:
                raise BandOverflowError(
                    f"declared band {self.declared_band} exceeds grid capacity "
                    f"{self.grid.max_label_band}; build the grid with band >= "
                    f"{_required_grid_band(self.grid.model, self.declared_band)}")


def _required_grid_band(model: GroupModel, label_band_value: int) -> int:
    if model.kind == "su2":
        return (label_band_value + 1) // 2
    return label_band_value
