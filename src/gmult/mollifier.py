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
(``s = 2 pi``), the support of ``phi_r`` splits into two mirror panels,
exchanged by ``s -> 2 pi - s``.  (The second panel doubles every constant
but leaves all scaling exponents unchanged, and it forces the Fourier
coefficients of the family onto even labels.)  So a Gauss-Legendre rule on
the first panel, with doubled weights, stands for both (`_su2_half_rule`).
On the torus the profile is integrated over a small coordinate cube
containing the support.  The rules come from the grids' Gauss-Legendre
engine (`grids._leggauss`): one pass of the Legendre recurrence and Newton
steps on a Taylor polynomial.
The probe's grid cross-check (`grid_normalizer`) normalizes ``phi_r`` at
one scale by a grid's own product rule instead, summed only over nodes
whose samples can differ.  The scale alone picks the grid: the smallest
band that places `_MIN_NODES` nodes across the support radius.  The sum's
samples are capped, and a scale past the cap is refused before the grid
is built, naming the smallest scale the cap admits.

The fine-scale probes need Fourier data of products with ``psi_r`` to high
label bands.  Both get them from ``psi_r``'s central coefficients, which one
blocked matrix product of phase tables gives for every even label at once
(odd labels vanish).  The decay probe applies its vanishing factor per
label, by an exact Clebsch-Gordan stencil on the label lattice; the
second-difference probe reduces, for its two multipliers, to one exact
integral over the class angle (`_cz_norm_sq`).
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import GmultError, SymbolFormatError, UnderResolvedError
from .groups import GroupModel
from .grids import _leggauss, build_grid
from .central import CentralSequence, _sine_values, delta2

__all__ = [
    "bump_profile", "MollifierFamily", "mollifier_family",
    "mollifier_normalizer", "mollifier_l2_norm", "grid_normalizer",
    "grid_normalizer_samples", "DyadicPiece",
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

#: The fixed rules, built once: SU(2) radial, torus cube axes (n <= 3, 4).
_RADIAL_RULE, _CUBE_AXIS, _CUBE_AXIS_4 = map(_leggauss, (96, 24, 12))


def _panel(a: float, b: float, rule) -> Tuple[np.ndarray, np.ndarray]:
    x, w = rule  # a Gauss-Legendre rule on [-1, 1]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def _support_radius(model: GroupModel, r: float) -> float:
    if r <= 0:
        raise GmultError("the scale r must be positive")
    return float(r) ** (1.0 / model.n)


def _su2_support_width(R: float) -> float:
    """Class-angle width of the support's component at ``s = 0``: ``s_+``,
    or ``2 pi`` once ``R >= 2``."""
    return 2.0 * math.pi if R >= 2.0 else 2.0 * math.asin(0.5 * R)


def _su2_half_rule(R: float, rule) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes/weights for ``(1/pi) integral F(s) sin^2(s/2) ds`` over ``rho
    = 2 sin(s/2) <= R``, for ``F`` a function of ``rho``: the Gauss-Legendre
    ``rule`` on ``[0, s_+]``, with doubled weights for its mirror panel at
    ``2 pi``.  Once ``R >= 2`` it is the first half of the rule on ``[0, 2
    pi]``, whose middle node (an odd rule) keeps its single weight."""
    s, w = _panel(0.0, _su2_support_width(R), rule)
    w = 2.0 * w
    if R >= 2.0:
        half = (s.size + 1) // 2
        if s.size % 2:
            w[half - 1] *= 0.5
        s, w = s[:half], w[:half]
    return s, w * np.sin(0.5 * s) ** 2 / math.pi


def check_torus_dimension(model: GroupModel) -> None:
    """Raise ``SymbolFormatError`` unless the mollifier quadrature covers
    ``model``: the torus cube rule (a tensor of 24 or 12 nodes per axis)
    stops at ``n = 4``."""
    if model.kind != "su2" and model.n > 4:
        raise SymbolFormatError(
            "mollifier quadrature on the torus supports n <= 4")


def _torus_cube_rule(model: GroupModel,
                     R: float) -> Tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre rule on the coordinate cube containing the
    support ``rho(x) <= R`` around 0 in ``T^n``."""
    check_torus_dimension(model)
    n = model.n
    L = 0.5 if R >= 2.0 else math.asin(0.5 * R) / math.pi
    x1, w1 = _panel(-L, L, _CUBE_AXIS if n <= 3 else _CUBE_AXIS_4)
    pts = np.stack([a.ravel() for a in np.meshgrid(*[x1] * n, indexing="ij")])
    return pts, math.prod(np.meshgrid(*[w1] * n, indexing="ij")).ravel()


def _radial_integral(model: GroupModel, R: float,
                     f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Haar integral of ``f(rho)``, for ``f`` vanishing beyond ``rho =
    R``: the 96-node half rule on SU(2), the cube rule on the torus."""
    if model.kind == "su2":
        s, w = _su2_half_rule(R, _RADIAL_RULE)
        return float(np.sum(w * f(2.0 * np.sin(0.5 * s))))
    pts, wts = _torus_cube_rule(model, R)
    rho = np.sqrt(np.sum(4.0 * np.sin(math.pi * pts) ** 2, axis=0))
    return float(np.sum(wts * f(rho)))


def mollifier_normalizer(model: GroupModel, r: float) -> float:
    """Normalization constant making the scaled `bump_profile` a unit-mass
    density.

    Computed by quadrature against the bi-invariant radial coordinate; grows
    like ``1/r`` as ``r`` shrinks because the support ball has Haar measure
    comparable to ``r``.
    """
    R = _support_radius(model, r)
    mass = _radial_integral(model, R, lambda rho: bump_profile(rho / R))
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
    sq = _radial_integral(model, fam.support_radius,
                          lambda rho: fam.density(rho) ** 2)
    return math.sqrt(max(sq, 0.0))


# ---------------------------------------------------------------------------
# Grid normalization (the probe's cross-check)
# ---------------------------------------------------------------------------

#: Grid nodes the support radius of ``phi_r`` must span.
_MIN_NODES = 8
#: Entries (512 KiB) of one chunk of rows: the SU(2) samples of
#: `grid_normalizer` and the phase rows of `_su2_central_coefficients` are
#: formed a chunk at a time.
_CHUNK_ENTRIES = 1 << 16
#: Profile samples `grid_normalizer` may sum.  On the torus the sum holds
#: them at once, so the cap bounds its memory; on SU(2) it forms a chunk of
#: polar rows at a time, so the cap bounds its time.
_MAX_PROBE_SAMPLES = 1 << 22


def _node_spacing(model: GroupModel, band: int) -> float:
    """Node spacing of a band-``band`` grid along its least-resolved axis,
    in ``rho`` units: ``pi / (B + 2)`` on SU(2), ``2 pi / (2B + 1)`` on the
    torus."""
    if model.kind == "su2":
        return math.pi / (band + 2)
    return 2.0 * math.pi / (2 * band + 1)


def required_mollifier_band(model: GroupModel, r: float) -> int:
    """Smallest grid band placing ``_MIN_NODES`` nodes across the support
    radius of ``phi_r``."""
    R = min(_support_radius(model, r), 2.0)
    if model.kind == "su2":
        return max(2, int(math.ceil(_MIN_NODES * math.pi / R)) - 2)
    return max(2, int(math.ceil(0.5 * (_MIN_NODES * 2.0 * math.pi / R - 1.0))))


def smallest_resolved_scale(model: GroupModel, band: int) -> float:
    """Smallest scale ``r`` whose support a band-``band`` grid resolves."""
    return float((_MIN_NODES * _node_spacing(model, band)) ** model.n)


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


def grid_normalizer(model: GroupModel, r: float) -> Tuple[float, int]:
    """Normalization ``c_r`` of ``phi_r`` by a grid's own product rule, and
    the grid's band: the reciprocal of the grid quadrature of
    ``bump_profile(rho / R)`` on the band-`required_mollifier_band` grid.

    Raises ``UnderResolvedError`` before the grid is built when the sum
    would take more than `_MAX_PROBE_SAMPLES` samples; the message names
    the smallest scale the cap admits, rounded up to 6 digits so that it
    is admitted as printed.

    The sum runs only where the samples can differ.  On SU(2) the ``N =
    2B + 1`` phi nodes and the ``2N`` psi nodes share the spacing ``2 pi /
    N``, so a node's class angle depends only on its polar node and on ``m
    = (j + k) mod 2N``: the ``N 2N`` azimuthal pairs are ``N`` copies of
    the ``2N`` pairs with ``j = 0``.  On the torus the profile vanishes
    outside the sub-box where every axis term ``2 - 2 cos 2 pi x`` is at
    most ``R^2`` (`bump_profile` is 0 from 1 on).  The SU(2) samples are
    formed `_CHUNK_ENTRIES` at a time, by whole polar rows, and only their
    row sums are kept.
    """
    band = required_mollifier_band(model, r)
    samples = grid_normalizer_samples(model, band, r)
    if samples > _MAX_PROBE_SAMPLES:
        # the samples grow with the band and are at least the band, so
        # the largest band the cap admits is below the cap
        low = bisect.bisect_right(
            range(_MAX_PROBE_SAMPLES), _MAX_PROBE_SAMPLES,
            key=lambda b: grid_normalizer_samples(
                model, b, smallest_resolved_scale(model, b))) - 1
        import decimal  # for this message only: not loaded at start-up
        up = decimal.Context(prec=6, rounding=decimal.ROUND_CEILING)
        floor = up.create_decimal(smallest_resolved_scale(model, low))
        raise UnderResolvedError(
            f"the grid cross-check at r={r:g} needs a band-{band} grid, "
            f"whose sum takes {samples} samples, past the probe cap "
            f"{_MAX_PROBE_SAMPLES}; the cap admits coarsest scales from "
            f"{float(floor):.6g} up")
    grid = build_grid(model, band)
    R = _support_radius(model, r)
    if model.kind == "su2":
        cos_theta = np.cos(grid.thetas / 2.0)
        cos_psi = np.cos(grid.psis / 2.0)
        sums = np.empty(cos_theta.size)
        step = max(1, _CHUNK_ENTRIES // cos_psi.size)
        for a in range(0, cos_theta.size, step):
            half_trace = cos_theta[a:a + step, None] * cos_psi[None, :]
            angle = 2.0 * np.arccos(np.clip(half_trace, -1.0, 1.0))
            rho_sq = np.maximum(2.0 - 2.0 * np.cos(angle), 0.0)
            sums[a:a + step] = bump_profile(np.sqrt(rho_sq) / R).sum(axis=1)
        # weights theta_w / (2 N 2N), each (theta, m) sample taken N times
        mass = float(grid.theta_weights @ sums) / (2.0 * grid.psis.size)
    else:
        terms = 2.0 - 2.0 * np.cos(2.0 * math.pi * grid.axis)
        terms = terms[terms <= R * R]
        rho_sq = sum(np.ix_(*[terms] * model.n))
        raw = bump_profile(np.sqrt(np.maximum(rho_sq, 0.0)) / R)
        mass = float(np.sum(raw)) / grid.node_count
    if mass <= 0:
        raise GmultError("mollifier samples have nonpositive mass")
    return 1.0 / mass, band


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
    """Coefficients ``s_t`` (t = 0..band) of a central function of ``rho``
    supported in ``rho <= R``: ``s_t = (1/(t+1)) (1/pi) integral F chi_t
    sin^2(s/2) ds``.

    As ``chi_t = sin((t+1) theta) / sin(theta)`` with ``theta = s/2``, the
    mirror ``theta -> pi - theta`` multiplies ``sin((t+1) theta)`` by
    ``(-1)^t``: odd labels vanish, and are written as exact zeros, and the
    half rule `_su2_half_rule` gives the even ones, ``(2u+1) s_{2u} = Im
    sum_j g_j e^{i(2u+1) theta_j}``, ``g_j = F_j w_j / sin(theta_j)``.
    With ``u = b K + k`` and ``K ~ sqrt(band/2 + 1)`` all of them come from
    one blocked product ``H E^T`` (done in real cosine/sine parts) of
    ``E[k, j] = e^{2 i k theta_j}`` and ``H[b, j] = g_j e^{i (2 b K + 1)
    theta_j}``: ``(K + band/(2K)) N`` phases.  ``E`` is written in place
    and ``H`` is formed and multiplied `_CHUNK_ENTRIES` at a time, by whole
    rows, so each output entry is one dot over the same ``2N`` terms.
    """
    nodes = max(48, int(0.35 * (band + 2) * _su2_support_width(R)) + 16)
    s, w = _su2_half_rule(R, _leggauss(nodes))
    theta = 0.5 * s
    g = values_fn(s) * w / np.sin(theta)
    evens = band // 2 + 1
    K, N = math.isqrt(evens - 1) + 1, theta.size
    E = np.empty((K, 2 * N))
    np.multiply(2.0 * np.arange(K)[:, None], theta, out=E[:, N:])
    np.cos(E[:, N:], out=E[:, :N])
    np.sin(E[:, N:], out=E[:, N:])
    rows = -(-evens // K)
    out = np.empty((rows, K))
    weights = np.concatenate((g, g))
    step = max(2, _CHUNK_ENTRIES // (2 * N))
    b0 = 0
    while b0 < rows:
        # no chunk is smaller than `step` or two rows (the last one takes
        # the remainder): BLAS may sum a one-row or a small product in
        # another order than a large one
        b1 = rows if rows - b0 < 2 * step else b0 + step
        high = (2.0 * K * np.arange(b0, b1) + 1.0)[:, None] * theta
        H = np.empty((b1 - b0, 2 * N))
        np.sin(high, out=H[:, :N])
        np.cos(high, out=H[:, N:])
        H *= weights
        np.matmul(H, E.T, out=out[b0:b1])
        del high, H                 # before the next chunk is formed
        b0 = b1
    coeffs = np.zeros(band + 1)
    coeffs[::2] = out.reshape(-1)[:evens] / (2.0 * np.arange(evens) + 1.0)
    return coeffs


def _psi_radial_values(model: GroupModel, r: float) -> Tuple[Callable, float]:
    fam_c = mollifier_family(model, r)
    fam_f = mollifier_family(model, 0.5 * r)

    def values(s: np.ndarray) -> np.ndarray:
        rho = 2.0 * np.sin(0.5 * s)
        return fam_c.density(rho) - fam_f.density(rho)

    return values, fam_c.support_radius


@dataclass(frozen=True)
class DyadicPiece:
    """``psi_r`` at the scale ``r``, by its central coefficients at both
    cuts of one walk: ``cz`` (1e-4) and ``decay`` (1e-9)."""

    r: float
    cz: CentralSequence
    decay: CentralSequence


def psi_hat_coefficients(model: GroupModel, r: float) -> DyadicPiece:
    """Central Fourier coefficients of the dyadic difference ``psi_r``, at
    both cuts of one walk.

    The band grows until the trailing Plancherel-weighted window falls
    below 1e-4 (``cz``), then 1e-9 (``decay``), of the accumulated norm;
    each cut keeps its first passing band, where a walk to it alone stops,
    with the sub-threshold tail dropped: each support certificate means
    "negligible at its relative tolerance" (the smooth bump's spectrum has
    no finite support).  The coefficients on odd labels are exact zeros by
    construction: the radial coordinate does not separate the two central
    elements, so the mirror support panels cancel there.

    Raises ``UnderResolvedError`` when every coefficient is 0, at scales
    where ``phi_r`` and ``phi_{r/2}`` are both the uniform density, and
    when the coefficients have not decayed below 1e-9 by band 40,000.
    """
    _require_su2(model, "psi_hat_coefficients")
    values_fn, R = _psi_radial_values(model, r)
    band, cuts = max(32, int(12.0 / R)), []
    while True:
        coeffs = _su2_central_coefficients(values_fn, R, band)
        weighted = (np.arange(band + 1) + 1.0) * np.abs(coeffs)
        norm = math.sqrt(float(np.sum(weighted ** 2)))
        for cut in (1e-4, 1e-9)[len(cuts):]:
            if not (norm == 0.0 or np.max(weighted[-8:]) <= cut * norm):
                break
            keep = np.nonzero(weighted > cut * norm)[0]
            c = coeffs[:keep[-1] + 1 if keep.size else 1]
            cuts.append(np.where(np.abs(c) < 1e-14 * np.max(np.abs(c)), 0, c))
        if len(cuts) == 2:
            break
        if band > 40000:
            raise UnderResolvedError(
                f"the radial coefficients of psi_r at r={R ** 3:.6g} did not "
                f"decay below 1e-09 by band {band} (the walk stops "
                "past band 40000); use larger scales")
        band = int(band * 1.6) + 16
    if not cuts[-1].any():
        raise UnderResolvedError(
            f"the dyadic piece psi_r vanishes at r={r!r}: phi_r and "
            "phi_{r/2} are both the uniform density there; use smaller "
            "scales")
    return DyadicPiece(float(r), *(CentralSequence(model, c, zero_beyond=True)
                                   for c in cuts))


def _ladder_pieces(model: GroupModel, ladder) -> List[DyadicPiece]:
    """A ladder's pieces (``None``: the default ladder's), scales walked."""
    rows = list(ladder) if ladder is not None else default_ladder()
    _check_ladder([getattr(p, "r", p) for p in rows])
    return [p if isinstance(p, DyadicPiece) else psi_hat_coefficients(model, p)
            for p in rows]


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
    """Least-squares line through ``(log scale, log value)`` in closed form
    from centred sums, ``slope = sum dx (y - mean y) / sum dx^2`` and
    ``intercept = mean y - slope mean x``, so the probes run no LAPACK
    solve for two parameters.  Needs >= 4 distinct scales, positive scales
    and values, and matching lengths (GmultError)."""
    xs = np.asarray(scales, dtype=float)
    ys = np.asarray(values, dtype=float)
    if xs.size != ys.size:
        raise GmultError("scales and values must have matching lengths")
    _check_ladder(xs)
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise GmultError("slope fits need positive scales and values")
    lx, ly = np.log(xs), np.log(ys)
    dx, dy = lx - np.mean(lx), ly - np.mean(ly)
    slope = np.sum(dx * dy) / np.sum(dx * dx)
    intercept = np.mean(ly) - slope * np.mean(lx)
    fitted = slope * lx + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum(dy ** 2))
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


def check_sobolev_order(model: GroupModel, q: str, s: float) -> None:
    """Raise ``SymbolFormatError`` unless the decay probe accepts the order
    ``s`` for ``q``: ``0 <= s <= 1 + n/2``, and ``s <= n/2`` for
    ``"rho2"``."""
    if not 0.0 <= s <= 1.0 + 0.5 * model.n:
        raise SymbolFormatError(
            f"the Sobolev order s={s} is outside [0, 1 + n/2]")
    if q == "rho2" and s > 0.5 * model.n:
        raise SymbolFormatError(
            f"the Sobolev order s={s} exceeds n/2 = {0.5 * model.n:g} for "
            f"q='rho2': rho^2 psi_r has mean ~r^(2/n), so its decay exponent "
            f"cannot reach the expected (2 + s)/n - 1/2")


def negative_sobolev_decay(model: GroupModel, q: str = "rho2", s: float = 0.0,
                           ladder: Optional[Sequence] = None
                           ) -> Dict[str, object]:
    """Fitted decay exponent of ``|| q psi_r ||_{H^{-s}}`` over a ladder.

    ``q`` selects a factor vanishing at the identity to a known order:
    ``"one"`` (order 0), ``"rho2"`` (the squared radial coordinate,
    order 2), or ``"adcoef"`` (an off-diagonal fundamental matrix
    coefficient, order 1).  The expected exponent is
    ``(order + s)/n - 1/2``; `check_sobolev_order` gives the accepted ``s``.

    ``ladder`` holds scales or `DyadicPiece`s (`psi_hat_coefficients`).
    Each scale reads the piece's 1e-9 cut, applies ``q`` as an exact
    lattice operator (`_times_q`) and sums ``(t+1)^2 <t>^{-2s} v_t^2``.
    ``bands`` reports the coefficient band of that cut at each scale.
    """
    _require_su2(model, "negative_sobolev_decay")
    if q not in _VANISHING_ORDERS:
        raise GmultError(f"unknown vanishing factor {q!r}; "
                         f"choose from {sorted(_VANISHING_ORDERS)}")
    check_sobolev_order(model, q, s)
    pieces = _ladder_pieces(model, ladder)
    rs = [p.r for p in pieces]
    norms = [math.sqrt(_sobolev_sq_radial(_times_q(q, p.decay), s))
             for p in pieces]
    bands = [p.decay.support_band for p in pieces]
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

@dataclass(frozen=True)
class _DiagonalMultiplier:
    """A diagonal multiplier of the second-difference probe: called at label
    ``t`` it gives the entries ``w_t (-i mu/2)^order`` over ascending
    twice-weights ``mu``.  Order 1 is the Riesz transform ``X_3
    Lambda^{-1}`` (``w_t = 1 / sqrt(l (l + 1))``, ``l = t/2``, ``w_0 =
    0``), order 0 the identity (``w_t = 1``)."""

    order: int

    def weights(self, band: int) -> np.ndarray:
        """The weights ``w_t`` for ``t = 0..band``."""
        if self.order == 0:
            return np.ones(band + 1)
        ell = 0.5 * np.arange(1, band + 1)
        return np.concatenate(([0.0], 1.0 / np.sqrt(ell * (ell + 1.0))))

    def __call__(self, t: int) -> np.ndarray:
        mus = np.arange(-t, t + 1, 2, dtype=float)
        return (-0.5j * mus) ** self.order * self.weights(t)[t]


def riesz_field_diagonals(model: GroupModel) -> _DiagonalMultiplier:
    """The Riesz transform of the third frame field as a probe multiplier:
    at ``t`` the diagonal of ``central.riesz_symbol(model, (0, 0, 1), t)``."""
    _require_su2(model, "riesz_field_diagonals")
    return _DiagonalMultiplier(1)


#: The identity multiplier of the second-difference probe.
identity_diagonals = _DiagonalMultiplier(0)


def _cz_norm_sq(multiplier: _DiagonalMultiplier, coeffs: np.ndarray,
                m: int) -> float:
    """Squared Plancherel norm of the ``m``-fold second difference of a
    probe multiplier times central coefficients ``c_t``: one exact integral
    over the class angle ``theta = s/2``.

    With ``S = sum_t a_t sin((t+1) theta)``, ``a_t = (t+1) c_t w_t``, the
    kernel is ``F = f(cos theta) = S / sin theta`` (identity) or ``X_3 F =
    -f'(x) y / 2`` (Riesz), where Haar measure sends the fundamental
    coefficient ``z = x + i y`` to ``dA / pi`` on the unit disk.  Times
    ``rho^{2m} = (4 sin^2 theta)^m``, with ``y`` integrated out, the squared
    norms are ``(2 16^m / pi) int_0^pi sin^{4m} S^2`` and ``(16^m / (6 pi))
    int_0^pi sin^{4m-2} (S' sin - S cos)^2``: even trigonometric polynomials
    of degree at most ``2B + 4m + 2``, so half the uniform rule of ``n = 2
    (B + 2m + 3)`` nodes on ``[0, 2 pi)`` is exact.  ``S`` and ``S'`` take
    one inverse real FFT each (`central._sine_values`).
    """
    band = coeffs.size - 1
    n = 2 * (band + 2 * m + 3)
    a = np.arange(1.0, band + 2.0) * coeffs * multiplier.weights(band)
    s = _sine_values(a, n)
    theta = (2.0 * math.pi / n) * np.arange(n)
    sin = np.sin(theta)
    if multiplier.order == 0:
        return 2.0 * 16.0 ** m / n * float(np.sum(sin ** (4 * m) * s * s))
    ds = _sine_values(a, n, derivative=True)
    ds *= sin
    ds -= s * np.cos(theta)
    return 16.0 ** m / (6.0 * n) * float(np.sum(sin ** (4 * m - 2) * ds * ds))


def cz_probe(model: GroupModel, diagonal: _DiagonalMultiplier,
             ladder: Optional[Sequence] = None) -> Dict[str, object]:
    """Scaling probe for dyadically localized second differences of a
    diagonal multiplier symbol.

    ``diagonal`` is ``riesz_field_diagonals(model)`` or
    ``identity_diagonals``, whose norms `_cz_norm_sq` gives in closed form;
    anything else is refused with ``GmultError``.

    Computes the Plancherel norm of the ``m``-fold second difference of
    ``sigma`` times the dyadic-piece coefficients over a scale ladder and
    fits the log-log slope; the probe passes when the slope is at least
    ``2 m / n - 1/2 - 0.1``, the exponent forced by the scaling of the
    dyadic pieces, and the fit's r^2 is at least 0.95.  ``m`` is half the
    even differentiability budget of the model (1 on the 3-sphere model).
    ``ladder`` holds scales or `DyadicPiece`s, whose 1e-4 cut it reads; a
    scale is walked to 1e-9 too, so r below about 1e-6 is refused.

    `_cz_norm_sq` integrates the coefficients it is given exactly, but
    they are inexact twice over: the Gauss rule of
    `_su2_central_coefficients` is sized to the band, not to ``psi_r``
    (the default ladder's norms are off by 3e-9 to 7e-7 relative), and they
    are cut at relative Plancherel-weighted size 1e-4 of ``psi_r``'s norm,
    not of the much smaller reported one.  The cut's error grows as the
    scale shrinks: on the default ladder the fit's r^2 is 0.9999996, but on
    ``1e-5..8e-5`` the slope is 0.054 with r^2 0.72, where a 1e-5 cut gives
    slope 0.165 with r^2 1.0 (ROADMAP item 5).
    """
    _require_su2(model, "cz_probe")
    if not isinstance(diagonal, _DiagonalMultiplier):
        raise GmultError("the second-difference probe takes "
                         "riesz_field_diagonals(model) or identity_diagonals, "
                         f"not {diagonal!r}")
    m = model.kappa // 2
    pieces = _ladder_pieces(model, ladder)
    rs = [p.r for p in pieces]
    norms = [math.sqrt(_cz_norm_sq(diagonal, p.cz.table.real, m))
             for p in pieces]
    bands = [p.cz.support_band for p in pieces]
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
        "passed": bool(fit.slope >= target - 0.1
                       and fit.r_squared >= 0.95),
    }
