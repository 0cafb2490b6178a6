"""Approximate-identity family and dyadic scaling probes.

This module builds the compactly supported mollifier family ``phi_r`` used by
the dilation-style arguments on a compact group: ``phi_r`` is a central bump
of unit mass whose support lives in the ball ``rho(g) <= r^{1/n}`` (a set of
Haar measure comparable to ``r``), and ``psi_r = phi_r - phi_{r/2}`` is the
dyadic difference.  On top of the family it implements numerical scaling
probes: the normalization and L2 growth laws, negative-order Sobolev decay
for products ``q * psi_r`` with ``q`` vanishing at the identity, and the
second-difference scaling probe for a multiplier symbol (the quantity whose
uniform-in-r control drives the weak-type machinery).

Two quadrature backends are used.  Class functions on the 3-sphere model are
integrated exactly in the class angle ``s`` with the weight
``sin^2(s/2) / pi`` on ``[0, 2 pi]``; because the radial coordinate ``rho``
vanishes both at the identity (``s = 0``) and at the central element ``-I``
(``s = 2 pi``), the support of ``phi_r`` splits into two mirror panels and
Gauss-Legendre rules are placed on both.  (The second panel doubles every
constant but leaves all scaling exponents unchanged, and it forces the
Fourier coefficients of the family onto even labels.)  On the torus the
profile is integrated over a small coordinate cube containing the support.
The rules come from Newton steps on the Legendre recurrence (`_leggauss`).
The grid cross-check (`grid_normalizer`) normalizes ``phi_r`` by a grid's
own product rule instead, summed only over nodes whose samples can differ,
and guards against under-resolved supports.

The fine-scale probes need Fourier data of products with ``psi_r`` to high
label bands.  Both get them from ``psi_r``'s central coefficients, which one
blocked matrix product of phase tables gives for every label at once, and
exact Clebsch-Gordan stencils on the label lattice: the decay probe applies
its vanishing factor per label, the second-difference probe works in
(label, weight).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import GmultError, UnderResolvedError
from .groups import GroupModel
from .grids import GroupGrid
from .central import CentralSequence, delta2

__all__ = [
    "bump_profile", "MollifierFamily", "mollifier_family",
    "mollifier_normalizer", "mollifier_l2_norm", "grid_normalizer",
    "grid_normalizer_samples",
    "required_mollifier_band", "smallest_resolved_scale",
    "psi_hat_coefficients", "SlopeFit", "fit_loglog", "default_ladder",
    "mollifier_scaling_report", "check_sobolev_order",
    "check_torus_dimension", "negative_sobolev_decay", "cz_probe",
    "riesz_field_diagonals", "identity_diagonals",
]


# ---------------------------------------------------------------------------
# Smooth profile
# ---------------------------------------------------------------------------

def bump_profile(v):
    """Smooth plateau profile: 1 on [0, 1/2], 0 from 1 on, C^infinity bridge.

    The bridge is the standard exponential splice
    ``h(1 - w) / (h(w) + h(1 - w))`` with ``h(x) = exp(-1/x)`` and
    ``w = 2 v - 1``, so every derivative vanishes at both junctions; in
    particular the profile is flat at 0 with value 1.
    """
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    out = np.zeros(arr.shape, dtype=float)
    out[np.abs(arr) <= 0.5] = 1.0
    mid = (np.abs(arr) > 0.5) & (np.abs(arr) < 1.0)
    if mid.any():
        w = 2.0 * np.abs(arr[mid]) - 1.0
        ha = np.exp(-1.0 / w)
        hb = np.exp(-1.0 / (1.0 - w))
        out[mid] = hb / (ha + hb)
    if np.isscalar(v) or np.asarray(v).ndim == 0:
        return float(out[0])
    return out


# ---------------------------------------------------------------------------
# Radial quadrature backends
# ---------------------------------------------------------------------------

_LEG_CACHE: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}


def _legendre_and_derivative(n: int, x: np.ndarray
                             ) -> Tuple[np.ndarray, np.ndarray]:
    """``P_n(x)`` by the three-term recurrence, and ``P_n'(x)`` from it."""
    p_prev, p = np.ones_like(x), x.copy()
    for j in range(1, n):
        # (j + 1) P_{j+1} = (2j + 1) x P_j - j P_{j-1}, in place
        nxt = x * p
        nxt *= (2 * j + 1) / (j + 1)
        p_prev *= j / (j + 1)
        nxt -= p_prev
        p_prev, p = p, nxt
    return p, n * (x * p - p_prev) / (x * x - 1.0)


def _leggauss(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule of ``n >= 1`` nodes on ``[-1, 1]``, ascending.

    Tricomi's asymptotic nodes (with their ``n^-4`` term) are polished by
    Newton steps on ``P_n``, on the positive half only, and mirrored; the
    weights are ``2 / ((1 - x^2) P_n'(x)^2)`` at the final nodes.  Two
    steps reach the rounding floor from ``n = 48`` on (the smallest rule of
    the SU(2) radial integrals); smaller rules take a third.  Each pass is
    ``n`` vector steps of length ``n/2``, where a dense eigensolve costs
    ``O(n^3)``.  (`grids.build_grid` keeps numpy's ``leggauss``: at grid
    sizes the two rules differ only by rounding, which the ill-conditioned
    ``grid_cross_check.relative_difference`` of `probe` would amplify.)
    """
    n = int(n)
    if n not in _LEG_CACHE:
        phi = math.pi / (4 * n + 2) * (4.0 * np.arange(1, (n + 3) // 2) - 1.0)
        x = (1.0 - (n - 1.0) / (8.0 * n ** 3)
             - (39.0 - 28.0 / np.sin(phi) ** 2) / (384.0 * n ** 4)) \
            * np.cos(phi)
        for _ in range(2 if n >= 48 else 3):
            p, dp = _legendre_and_derivative(n, x)
            x = x - p / dp
        _, dp = _legendre_and_derivative(n, x)
        w = 2.0 / ((1.0 - x * x) * dp * dp)
        mid = n % 2  # an odd rule holds the node 0 once
        _LEG_CACHE[n] = (np.concatenate((-x, x[::-1][mid:])),
                         np.concatenate((w, w[::-1][mid:])))
    return _LEG_CACHE[n]


def _panel(a: float, b: float, n: int) -> Tuple[np.ndarray, np.ndarray]:
    x, w = _leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def _support_radius(model: GroupModel, r: float) -> float:
    if r <= 0:
        raise GmultError("the scale r must be positive")
    return float(r) ** (1.0 / model.n)


def _su2_class_rule(intervals: Sequence[Tuple[float, float]],
                    nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for ``(1/pi) integral F(s) sin^2(s/2) ds`` over a union
    of class-angle intervals."""
    ss, ww = [], []
    for a, b in intervals:
        if b <= a:
            continue
        s, w = _panel(a, b, nodes)
        ss.append(s)
        ww.append(w * np.sin(0.5 * s) ** 2 / math.pi)
    if not ss:
        return np.zeros(0), np.zeros(0)
    return np.concatenate(ss), np.concatenate(ww)


def _su2_support_panels(R: float) -> List[Tuple[float, float]]:
    """Class-angle intervals covering ``rho(g) = 2 sin(s/2) <= R``; the set
    has mirror components around both central elements."""
    if R >= 2.0:
        return [(0.0, 2.0 * math.pi)]
    s_plus = 2.0 * math.asin(0.5 * R)
    return [(0.0, s_plus), (2.0 * math.pi - s_plus, 2.0 * math.pi)]


def _su2_radial_integral(fn: Callable[[np.ndarray], np.ndarray],
                         intervals: Sequence[Tuple[float, float]]) -> float:
    s, w = _su2_class_rule(intervals, 96)
    if s.size == 0:
        return 0.0
    return float(np.sum(w * fn(s)))


def check_torus_dimension(model: GroupModel,
                          error: type = GmultError) -> None:
    """Raise ``error`` unless the mollifier quadrature covers ``model``: the
    torus cube rule (a tensor of 24 or 12 nodes per axis) stops at
    ``n = 4``."""
    if model.kind != "su2" and model.n > 4:
        raise error("mollifier quadrature on the torus supports n <= 4")


def _torus_cube_rule(model: GroupModel,
                     R: float) -> Tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre rule on the coordinate cube containing the
    support ``rho(x) <= R`` around 0 in ``T^n``."""
    check_torus_dimension(model)
    n = model.n
    L = 0.5 if R >= 2.0 else math.asin(0.5 * R) / math.pi
    x1, w1 = _panel(-L, L, 24 if n <= 3 else 12)
    axes = np.meshgrid(*([x1] * n), indexing="ij")
    pts = np.stack([a.reshape(-1) for a in axes], axis=0)
    wts = np.ones(pts.shape[1])
    for wnd in np.meshgrid(*([w1] * n), indexing="ij"):
        wts = wts * wnd.reshape(-1)
    return pts, wts


def _torus_rho(points: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(4.0 * np.sin(math.pi * points) ** 2, axis=0))


def mollifier_normalizer(model: GroupModel, r: float) -> float:
    """Normalization constant making the scaled `bump_profile` a unit-mass
    density.

    Computed by quadrature against the bi-invariant radial coordinate; grows
    like ``1/r`` as ``r`` shrinks because the support ball has Haar measure
    comparable to ``r``.
    """
    R = _support_radius(model, r)
    if model.kind == "su2":
        mass = _su2_radial_integral(
            lambda s: bump_profile(2.0 * np.sin(0.5 * s) / R),
            _su2_support_panels(R))
    else:
        pts, wts = _torus_cube_rule(model, R)
        mass = float(np.sum(wts * bump_profile(_torus_rho(pts) / R)))
    if mass <= 0:
        raise GmultError(f"mollifier profile has nonpositive mass at r={r!r}")
    return 1.0 / mass


@dataclass(frozen=True)
class MollifierFamily:
    """One scale of the mollifier family: scale and normalization.

    ``density(rho_values)`` evaluates the central density through the radial
    coordinate; ``support_radius`` is the radius in ``rho`` units beyond
    which the density vanishes.
    """

    model: GroupModel
    r: float
    c_r: float

    @property
    def support_radius(self) -> float:
        return _support_radius(self.model, self.r)

    def density(self, rho_values):
        return self.c_r * bump_profile(np.asarray(rho_values, dtype=float)
                                       / self.support_radius)


def mollifier_family(model: GroupModel, r: float) -> MollifierFamily:
    return MollifierFamily(model, float(r), mollifier_normalizer(model, r))


def mollifier_l2_norm(model: GroupModel, r: float) -> float:
    """Quadrature L2 norm of ``phi_r``; grows like ``r^{-1/2}``."""
    fam = mollifier_family(model, r)
    R = fam.support_radius
    if model.kind == "su2":
        sq = _su2_radial_integral(
            lambda s: fam.density(2.0 * np.sin(0.5 * s)) ** 2,
            _su2_support_panels(R))
    else:
        pts, wts = _torus_cube_rule(model, R)
        sq = float(np.sum(wts * fam.density(_torus_rho(pts)) ** 2))
    return math.sqrt(max(sq, 0.0))


# ---------------------------------------------------------------------------
# Grid normalization (resolution-guarded)
# ---------------------------------------------------------------------------

#: Grid nodes the support radius of ``phi_r`` must span.
_MIN_NODES = 8


def _axis_spacing(grid: GroupGrid) -> float:
    """Node spacing along the least-resolved axis, in ``rho`` units."""
    model = grid.model
    if model.kind == "su2":
        return math.pi / (grid.shape[1] + 1)
    return 2.0 * math.pi / grid.shape[0]


def required_mollifier_band(model: GroupModel, r: float) -> int:
    """Smallest grid band placing ``_MIN_NODES`` nodes across the support
    radius of ``phi_r``."""
    R = min(_support_radius(model, r), 2.0)
    if model.kind == "su2":
        return max(2, int(math.ceil(_MIN_NODES * math.pi / R)) - 2)
    return max(2, int(math.ceil(0.5 * (_MIN_NODES * 2.0 * math.pi / R - 1.0))))


def smallest_resolved_scale(model: GroupModel, band: int) -> float:
    """Smallest scale ``r`` whose support a band-``band`` grid resolves."""
    if model.kind == "su2":
        spacing = math.pi / (band + 2)
    else:
        spacing = 2.0 * math.pi / (2 * band + 1)
    return float((_MIN_NODES * spacing) ** model.n)


def grid_normalizer_samples(model: GroupModel, band: int, r: float) -> int:
    """Profile samples :func:`grid_normalizer` sums at scale ``r`` on a
    band-``band`` grid (at least the torus grid's axis), without building
    the grid: ``(B + 1) 2N`` on SU(2), the support sub-box on the torus."""
    nodes = 2 * band + 1
    if model.kind == "su2":
        return (band + 1) * 2 * nodes
    # axis nodes k / N with 2 - 2 cos(2 pi k / N) <= R^2
    R = _support_radius(model, r)
    half = math.floor(nodes * math.asin(min(R / 2.0, 1.0)) / math.pi)
    return max(nodes, min(nodes, 2 * half + 1) ** model.n)


def grid_normalizer(model: GroupModel, grid: GroupGrid, r: float) -> float:
    """Normalization ``c_r`` of ``phi_r`` by the grid's own product rule:
    the reciprocal of the grid quadrature of ``bump_profile(rho / R)``.

    Raises ``UnderResolvedError`` when fewer than ``_MIN_NODES`` grid
    nodes span the support radius; the message names both the smallest
    usable scale for this grid and the band that would resolve the
    request.

    The sum runs only where the samples can differ.  On SU(2) the ``N =
    2B + 1`` phi nodes and the ``2N`` psi nodes share the spacing ``2 pi /
    N``, so a node's class angle depends only on its polar node and on ``m
    = (j + k) mod 2N``: the ``N 2N`` azimuthal pairs are ``N`` copies of
    the ``2N`` pairs with ``j = 0``.  On the torus the profile vanishes
    outside the sub-box where every axis term ``2 - 2 cos 2 pi x`` is at
    most ``R^2`` (`bump_profile` is 0 from 1 on).
    """
    if grid.model != model:
        raise GmultError("grid was built for a different model")
    R = _support_radius(model, r)
    count = min(R, 2.0) / _axis_spacing(grid)
    if count < _MIN_NODES:
        raise UnderResolvedError(
            f"support radius {R:.6g} spans only {count:.2f} grid nodes "
            f"(need >= {_MIN_NODES}); smallest usable r on this grid is "
            f"{smallest_resolved_scale(model, grid.band):.6g}, "
            f"or rebuild the grid with band >= "
            f"{required_mollifier_band(model, r)}")
    if model.kind == "su2":
        half_trace = (np.cos(grid.thetas / 2.0)[:, None]
                      * np.cos(grid.psis / 2.0)[None, :])
        angle = 2.0 * np.arccos(np.clip(half_trace, -1.0, 1.0))
        rho_sq = np.maximum(2.0 - 2.0 * np.cos(angle), 0.0)
        raw = bump_profile(np.sqrt(rho_sq) / R)
        # weights theta_w / (2 N 2N), each (theta, m) sample taken N times
        mass = float(grid.theta_weights @ raw.sum(axis=1)) \
            / (2.0 * grid.psis.size)
    else:
        terms = 2.0 - 2.0 * np.cos(2.0 * math.pi * grid.axis)
        terms = terms[terms <= R * R]
        rho_sq = np.zeros((terms.size,) * model.n)
        for d_axis in range(model.n):
            sh = [1] * model.n
            sh[d_axis] = terms.size
            rho_sq = rho_sq + terms.reshape(sh)
        raw = bump_profile(np.sqrt(np.maximum(rho_sq, 0.0)) / R)
        mass = float(np.sum(raw)) / grid.node_count
    if mass <= 0:
        raise GmultError("mollifier samples have nonpositive mass")
    return 1.0 / mass


# ---------------------------------------------------------------------------
# Radial Fourier coefficients on the 3-sphere model
# ---------------------------------------------------------------------------

def _require_su2(model: GroupModel, what: str) -> None:
    if model.kind != "su2":
        raise GmultError(
            f"{what} is implemented on the 3-sphere model only; "
            "the torus route is out of scope")


def _su2_central_coefficients(values_fn: Callable[[np.ndarray], np.ndarray],
                              R: float, band: int) -> np.ndarray:
    """Coefficients ``s_t`` (t = 0..band) of a central function supported in
    ``rho <= R``: ``s_t = (1/(t+1)) (1/pi) integral F chi_t sin^2(s/2) ds``.

    As ``chi_t = sin((t+1) theta) / sin(theta)`` with ``theta = s/2``, the
    rule gives ``(t+1) s_t = Im sum_j g_j e^{i(t+1) theta_j}``, ``g_j = F_j
    w_j / sin(theta_j)``.  With ``t = b K + k`` and ``K ~ sqrt(band + 1)``
    all labels come from one blocked product ``H E^T`` (done in real
    cosine/sine parts) of ``E[k, j] = e^{i k theta_j}`` and ``H[b, j] = g_j
    e^{i (b K + 1) theta_j}``: ``(K + band/K) N`` phases, no temporary
    beyond O(sqrt(band) N) entries.
    """
    panels = _su2_support_panels(R)
    width = max(b - a for a, b in panels)
    nodes = max(48, int(0.35 * (band + 2) * width) + 16)
    s, w = _su2_class_rule(panels, nodes)
    theta = 0.5 * s
    g = values_fn(s) * w / np.sin(theta)
    K = math.isqrt(band) + 1
    low = np.arange(K)[:, None] * theta
    high = (K * np.arange(-(-(band + 1) // K)) + 1.0)[:, None] * theta
    E = np.concatenate((np.cos(low), np.sin(low)), axis=1)
    H = np.concatenate((g * np.sin(high), g * np.cos(high)), axis=1)
    return (H @ E.T).reshape(-1)[:band + 1] / (np.arange(band + 1) + 1.0)


def _psi_radial_values(model: GroupModel, r: float) -> Tuple[Callable, float]:
    fam_c = mollifier_family(model, r)
    fam_f = mollifier_family(model, 0.5 * r)

    def values(s: np.ndarray) -> np.ndarray:
        rho = 2.0 * np.sin(0.5 * s)
        return fam_c.density(rho) - fam_f.density(rho)

    return values, fam_c.support_radius


def _adaptive_band(values_fn: Callable, R: float, start: int,
                   rel_tol: float) -> np.ndarray:
    """Grow the coefficient band until the trailing Plancherel-weighted
    window drops below ``rel_tol`` of the accumulated norm, then trim the
    sub-threshold tail."""
    band = max(start, 16)
    while True:
        coeffs = _su2_central_coefficients(values_fn, R, band)
        weighted = (np.arange(band + 1) + 1.0) * np.abs(coeffs)
        total = float(np.sum(weighted ** 2))
        tail = float(np.max(weighted[-8:]))
        if total == 0.0 or tail <= rel_tol * math.sqrt(total):
            keep = np.nonzero(weighted > rel_tol * math.sqrt(total))[0]
            return coeffs[:int(keep[-1]) + 1] if keep.size else coeffs[:1]
        if band > 40000:
            raise GmultError("radial coefficients did not decay below the "
                             f"tolerance by band {band}")
        band = int(band * 1.6) + 16


def psi_hat_coefficients(model: GroupModel, r: float,
                         rel_tol: float = 1e-9) -> CentralSequence:
    """Central Fourier coefficients of the dyadic difference ``psi_r``.

    The band grows adaptively until the trailing Plancherel-weighted
    coefficients fall below ``rel_tol`` of the accumulated norm; the
    sub-threshold tail is then dropped, so the support certificate of the
    returned sequence means "negligible at the requested relative
    tolerance", not exact vanishing (the smooth bump's spectrum has no
    finite support).  The coefficients vanish on odd labels because
    the radial coordinate does not separate the two central elements (the
    mirror support panels cancel there).
    """
    _require_su2(model, "psi_hat_coefficients")
    values_fn, R = _psi_radial_values(model, r)
    coeffs = _adaptive_band(values_fn, R, max(32, int(12.0 / R)), rel_tol)
    coeffs[np.abs(coeffs) < 1e-14 * np.max(np.abs(coeffs), initial=0.0)] = 0.0
    return CentralSequence(model, coeffs, zero_beyond=True)


# ---------------------------------------------------------------------------
# Slope fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlopeFit:
    """Least-squares fit of ``log(value)`` against ``log(scale)``."""

    slope: float
    intercept: float
    r_squared: float
    points: int

    def as_dict(self) -> Dict[str, float]:
        return {"slope": self.slope, "intercept": self.intercept,
                "r_squared": self.r_squared, "points": self.points}


def _check_ladder(scales: Sequence[float]) -> None:
    if len(set(map(float, scales))) < 4:
        raise GmultError("ladder too short: slope fits need >= 4 distinct "
                         "scales")


def fit_loglog(scales: Sequence[float], values: Sequence[float]) -> SlopeFit:
    xs = np.asarray(scales, dtype=float)
    ys = np.asarray(values, dtype=float)
    if xs.size != ys.size:
        raise GmultError("scales and values must have matching lengths")
    _check_ladder(xs)
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise GmultError("slope fits need positive scales and values")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return SlopeFit(float(slope), float(intercept), float(r2), int(xs.size))


def default_ladder(k_min: int = 4, k_max: int = 9) -> List[float]:
    """Dyadic scale ladder ``2^{-k}`` for ``k = k_min..k_max``."""
    return [2.0 ** (-k) for k in range(k_min, k_max + 1)]


def mollifier_scaling_report(model: GroupModel,
                             ladder: Optional[Sequence[float]] = None
                             ) -> Dict[str, object]:
    """Normalization and L2 scaling laws of ``phi_r`` over a scale ladder.

    Expected exponents: -1 for the normalization constant and -1/2 for the
    L2 norm.
    """
    rs = list(ladder) if ladder is not None else default_ladder()
    c_values = [mollifier_normalizer(model, r) for r in rs]
    l2_values = [mollifier_l2_norm(model, r) for r in rs]
    return {
        "model": model.name,
        "ladder": [float(r) for r in rs],
        "c_r": [float(v) for v in c_values],
        "l2": [float(v) for v in l2_values],
        "c_r_fit": fit_loglog(rs, c_values).as_dict(),
        "l2_fit": fit_loglog(rs, l2_values).as_dict(),
        "expected": {"c_r": -1.0, "l2": -0.5},
    }


# ---------------------------------------------------------------------------
# Negative-order Sobolev decay
# ---------------------------------------------------------------------------

_VANISHING_ORDERS = {"one": 0, "rho2": 2, "adcoef": 1}


def _sobolev_sq_radial(coeffs: np.ndarray, s: float) -> float:
    t = np.arange(coeffs.size)
    ell = t / 2.0  # japanese_bracket of every label at once
    brackets = np.maximum(1.0, np.sqrt(ell * (ell + 1.0)))
    return float(np.sum((t + 1.0) ** 2 * brackets ** (-2.0 * s)
                        * np.abs(coeffs) ** 2))


def _times_q(q: str, seq: CentralSequence) -> np.ndarray:
    """Per-label amplitudes ``v_t`` of ``q psi_r``: the block at label ``t``
    carries Plancherel mass ``(t+1)^2 v_t^2``, so ``v`` equals the central
    coefficients when the product is central.

    ``"rho2"``: ``rho^2 = 3 - chi_2`` is the dimension-weighted second
    difference `central.delta2`.  ``"adcoef"``: the off-diagonal
    fundamental coefficient with twice-weights (-1, +1) couples label ``u``
    to ``u -+ 1``; the spin-1/2 Clebsch-Gordan weights of both neighbours
    multiply to ``sqrt(L^2 - m^2)``, ``L = (u+1)/2``, so the block at ``u``
    lies on the second superdiagonal with entries proportional to
    ``sqrt(L^2 - m^2) (c_{u-1} - c_{u+1})`` and Plancherel mass
    ``u (u+2) (c_{u-1} - c_{u+1})^2 / 6``.
    """
    if q == "rho2":
        return delta2(seq).table.real
    c = seq.table.real
    if q == "one":
        return c
    c = np.concatenate(([0.0], c, [0.0, 0.0]))
    u = np.arange(c.size - 2, dtype=float)
    return np.sqrt(u * (u + 2.0) / 6.0) / (u + 1.0) * (c[:-2] - c[2:])


def check_sobolev_order(model: GroupModel, q: str, s: float,
                        error: type = GmultError) -> None:
    """Raise ``error`` unless the decay probe accepts the order ``s`` for
    ``q``: ``0 <= s <= 1 + n/2``, and ``s <= n/2`` for ``"rho2"``."""
    if not 0.0 <= s <= 1.0 + 0.5 * model.n:
        raise error(f"the Sobolev order s={s} is outside [0, 1 + n/2]")
    if q == "rho2" and s > 0.5 * model.n:
        raise error(
            f"the Sobolev order s={s} exceeds n/2 = {0.5 * model.n:g} for "
            f"q='rho2': rho^2 psi_r has mean ~r^(2/n), so its decay exponent "
            f"cannot reach the expected (2 + s)/n - 1/2")


def negative_sobolev_decay(model: GroupModel, q: str = "rho2", s: float = 0.0,
                           ladder: Optional[Sequence[float]] = None
                           ) -> Dict[str, object]:
    """Fitted decay exponent of ``|| q psi_r ||_{H^{-s}}`` over a ladder.

    ``q`` selects a factor vanishing at the identity to a known order:
    ``"one"`` (order 0), ``"rho2"`` (the squared radial coordinate,
    order 2), or ``"adcoef"`` (an off-diagonal fundamental matrix
    coefficient, order 1).  The expected exponent is
    ``(order + s)/n - 1/2``; `check_sobolev_order` gives the accepted ``s``.

    Each scale takes the central coefficients of ``psi_r`` once
    (`psi_hat_coefficients`, truncated at 1e-9), applies ``q`` as
    an exact lattice operator (`_times_q`) and sums
    ``(t+1)^2 <t>^{-2s} v_t^2``.  ``bands`` reports the coefficient band of
    ``psi_r`` at each scale.
    """
    _require_su2(model, "negative_sobolev_decay")
    if q not in _VANISHING_ORDERS:
        raise GmultError(f"unknown vanishing factor {q!r}; "
                         f"choose from {sorted(_VANISHING_ORDERS)}")
    check_sobolev_order(model, q, s)
    rs = list(ladder) if ladder is not None else default_ladder()
    _check_ladder(rs)
    norms: List[float] = []
    bands: List[int] = []
    for r in rs:
        seq = psi_hat_coefficients(model, r)
        v = _times_q(q, seq)
        norms.append(math.sqrt(_sobolev_sq_radial(v, s)))
        bands.append(seq.support_band)
    fit = fit_loglog(rs, norms)
    order = _VANISHING_ORDERS[q]
    expected = (order + s) / model.n - 0.5
    return {
        "model": model.name, "q": q, "s": float(s),
        "vanishing_order": order,
        "ladder": [float(r) for r in rs],
        "norms": [float(v) for v in norms],
        "bands": [int(b) for b in bands],
        "fit": fit.as_dict(),
        "expected_slope": float(expected),
    }


# ---------------------------------------------------------------------------
# Second-difference scaling probe
# ---------------------------------------------------------------------------

def riesz_field_diagonals(model: GroupModel) -> Callable[[int], np.ndarray]:
    """Closed-form diagonal provider for the Riesz transform of the third
    frame field: at label ``t`` the entries over ascending weights are
    ``-i (mu/2) / sqrt(l (l + 1))`` with ``l = t/2`` (zero at the trivial
    label), the diagonal of ``central.riesz_symbol(model, (0, 0, 1), t)``;
    one label at a time, affordable at the fine-scale probe's large bands.
    """
    _require_su2(model, "riesz_field_diagonals")

    def diagonals(t: int) -> np.ndarray:
        if t == 0:
            return np.zeros(1, dtype=complex)
        ell = 0.5 * t
        mus = np.arange(-t, t + 1, 2, dtype=float)
        return -1j * (0.5 * mus) / math.sqrt(ell * (ell + 1.0))

    return diagonals


def identity_diagonals(t: int) -> np.ndarray:
    """Diagonal provider of the identity multiplier."""
    return np.ones(t + 1, dtype=complex)


# Output rows per stencil block: blocks skip the zero columns past each
# block's last label and keep the temporaries small (whole packed rows at
# once take longer and raise the peak memory of `probe --group su2`).
_STENCIL_ROWS = 64


def _packed_dims(parity: int, count: int) -> np.ndarray:
    """Dimensions ``t + 1`` of the ``count`` packed rows of one parity,
    with 1 on the zero border rows."""
    dims = np.ones(count + 2)
    dims[1:-1] = parity + 2 * np.arange(count) + 1.0
    return dims


def _times_chi1_packed(rows: np.ndarray, parity: int,
                       size: int) -> np.ndarray:
    """Masses ``W[t, i]`` (see `_cz_norm_sq`) of a diagonal kernel times
    ``chi_1``, on packed rows of one label parity.

    ``rows[1 + k, 1 + i]`` holds ``W[parity + 2k, i]`` for labels below
    ``size``, inside a border of zeros; the result holds the other parity
    in the same layout.  Squared spin-1/2 Clebsch-Gordan weights send each
    mass to ``(t+1, i+1)``, ``(t+1, i)``, ``(t-1, i)`` and ``(t-1, i-1)``
    with weights ``(i+1, t-i+1, t-i, i) / (t+1)``, so output ``(t, i)``
    gathers four terms from rows ``t -+ 1``, added in that order.  Row
    ``t`` vanishes beyond column ``t``, so each block of output rows
    computes columns up to its last label plus one.
    """
    other = 1 - parity
    labels = other + 2 * np.arange((size - other + 1) // 2)
    dims = _packed_dims(parity, rows.shape[0] - 2)
    out = np.zeros((labels.size + 2, rows.shape[1]))
    for k0 in range(0, labels.size, _STENCIL_ROWS):
        k1 = min(k0 + _STENCIL_ROWS, labels.size)
        t = labels[k0:k1, None].astype(float)
        cols = min(int(labels[k1 - 1]) + 2, size)
        i = np.arange(cols, dtype=float)
        # padded source rows of labels t - 1 (lo) and t + 1 (hi)
        src = rows[k0 - parity + 1:k1 - parity + 2, :cols + 2] \
            / dims[k0 - parity + 1:k1 - parity + 2, None]
        lo, hi = src[:-1], src[1:]
        out[k0 + 1:k1 + 1, 1:cols + 1] = (
            lo[:, :cols] * i + lo[:, 1:cols + 1] * (t - i)
            + hi[:, 1:cols + 1] * (t + 1.0 - i) + hi[:, 2:] * (i + 1.0))
    return out


def _cz_norm_sq(diagonal: Callable[[int], np.ndarray], coeffs: np.ndarray,
                m: int) -> float:
    """Squared Plancherel norm of the ``m``-fold second difference of a
    diagonal symbol times central coefficients, by an exact label stencil.

    The product's kernel is ``sum_t sum_mu W[t, i] t^t_{mu mu}`` with masses
    ``W[t, i] = (t+1) c_t sigma_t(mu)`` over ``i = (mu + t)/2``, and its
    squared norm is ``sum |W[t, i]|^2 / (t+1)``.  The second difference
    multiplies the kernel by ``rho^2 = 4 - chi_1^2``, and multiplying by
    ``chi_1`` moves each mass to labels ``t +- 1`` (`_times_chi1_packed`).
    So ``chi_1^2`` keeps the label parity, and the even and odd labels
    evolve and sum apart: each parity runs on its own packed rows over the
    labels below ``B + 2m + 1``, in O(m B^2) whole-array steps on the
    nonzero triangle ``i <= t``.  ``diagonal(t)`` gives ``sigma_t``; it is
    called and size-checked at every label ``0..B``, one parity at a time,
    and its rows go straight into that parity's packed rows.  The stencil
    is real, so the real and imaginary parts are separate real planes, each
    allocated only when nonzero and evolved in place.
    """
    size = coeffs.size + 2 * m
    total = 0.0
    for parity in (0, 1):
        count = (size - parity + 1) // 2
        planes: List[Optional[np.ndarray]] = [None, None]
        for t in range(parity, coeffs.size, 2):
            row = np.asarray(diagonal(t), dtype=complex).reshape(-1)
            if row.size != t + 1:
                raise GmultError(
                    f"diagonal provider returned {row.size} entries at "
                    f"label {t}; expected {t + 1}")
            for k, values in enumerate((row.real, row.imag)):
                masses = (t + 1.0) * coeffs[t] * values
                if masses.any():
                    if planes[k] is None:
                        planes[k] = np.zeros((count + 2, size + 2))
                    planes[k][1 + t // 2, 1:t + 2] = masses
        dims = _packed_dims(parity, count)[:, None]
        while planes:                   # real part, then imaginary part
            part = planes.pop(0)
            if part is not None:
                for _ in range(m):
                    moved = _times_chi1_packed(_times_chi1_packed(
                        part, parity, size), 1 - parity, size)
                    part *= 4.0
                    part -= moved
                    del moved
                np.square(part, out=part)
                part /= dims
                total += float(np.sum(part))
            del part
    return total


def cz_probe(model: GroupModel, diagonal: Callable[[int], np.ndarray],
             ladder: Optional[Sequence[float]] = None) -> Dict[str, object]:
    """Scaling probe for dyadically localized second differences of a
    diagonal multiplier symbol.

    ``diagonal`` maps a label ``t`` to the symbol's diagonal entries there
    (see ``riesz_field_diagonals`` / ``identity_diagonals``), at any band.

    Computes the Plancherel norm of the ``m``-fold second difference of
    ``sigma`` times the dyadic-piece coefficients over a scale ladder and
    fits the log-log slope; the probe passes when the slope is at least
    ``2 m / n - 1/2 - 0.1``, the exponent forced by the scaling of the
    dyadic pieces.  ``m`` is half the even differentiability budget of the
    model (1 on the 3-sphere model).

    The dyadic-piece coefficients are truncated at relative
    Plancherel-weighted size 1e-4 (the induced per-point norm error is of
    the same order, far below the 0.1 slope tolerance); the label stencil
    of `_cz_norm_sq` then gives each truncated norm exactly.
    """
    _require_su2(model, "cz_probe")
    m = model.kappa // 2
    rs = list(ladder) if ladder is not None else default_ladder()
    _check_ladder(rs)
    norms: List[float] = []
    bands: List[int] = []
    for r in rs:
        seq = psi_hat_coefficients(model, r, rel_tol=1e-4)
        norms.append(math.sqrt(_cz_norm_sq(diagonal, seq.table.real, m)))
        bands.append(seq.support_band)
    fit = fit_loglog(rs, norms)
    target = 2.0 * m / model.n - 0.5
    return {
        "model": model.name, "m": int(m), "n": int(model.n),
        "epsilon": float(4.0 * m / model.n - 1.0),
        "ladder": [float(r) for r in rs],
        "norms": [float(v) for v in norms],
        "bands": [int(b) for b in bands],
        "fit": fit.as_dict(),
        "target_slope": float(target),
        "slope_floor": float(target - 0.1),
        "passed": bool(fit.slope >= target - 0.1),
    }
