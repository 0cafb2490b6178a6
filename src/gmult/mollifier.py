"""Approximate-identity family and dyadic scaling probes.

This module builds the compactly supported mollifier family ``phi_r`` used by
the dilation-style arguments on a compact group: ``phi_r`` is a central bump
of unit mass whose support lives in the ball ``rho(g) <= r^{1/n}`` (a set of
Haar measure comparable to ``r``), and ``psi_r = phi_r - phi_{r/2}`` is the
dyadic difference.  On top of the family it implements numerical scaling
probes: the normalization and L2 growth laws, tail and L1-modulus bounds,
negative-order Sobolev decay for products ``q * psi_r`` with ``q`` vanishing
at the identity, and the second-difference scaling probe for a multiplier
symbol (the quantity whose uniform-in-r control drives the weak-type
machinery).

Two quadrature backends are used.  Class functions on the 3-sphere model are
integrated exactly in the class angle ``s`` with the weight
``sin^2(s/2) / pi`` on ``[0, 2 pi]``; because the radial coordinate ``rho``
vanishes both at the identity (``s = 0``) and at the central element ``-I``
(``s = 2 pi``), the support of ``phi_r`` splits into two mirror panels and
Gauss-Legendre rules are placed on both.  (The second panel doubles every
constant but leaves all scaling exponents unchanged, and it forces the
Fourier coefficients of the family onto even labels.)  On the torus the
profile is integrated over a small coordinate cube containing the support.
Grid-sampled versions (`build_phi_r` / `build_psi_r`) guard against
under-resolved supports.

The fine-scale probes need Fourier data of central products to high label
bands.  The second-difference probe gets them from an exact Clebsch-Gordan
stencil in (label, weight).  The off-diagonal Sobolev probe evaluates
matrix coefficients along "lines" in the label by a three-term recurrence,
seeded with closed-form extremal-weight entries; it is self-starting since
the down-coupling coefficient vanishes at the lowest admissible label.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import BandOverflowError, GmultError, UnderResolvedError
from .groups import (GroupModel, irrep_dimension, japanese_bracket,
                     labels_up_to, su2_matrix)
from .grids import GroupFunction, GroupGrid, rho_squared_samples
from .symbols import (DifferenceWord, MatrixSymbol, apply_difference,
                      default_grid, laplace_difference, op_norm,
                      symbol_product)
from .transform import plancherel_norm, sobolev_norm
from .central import CentralSequence, laplace_central

__all__ = [
    "bump_profile", "MollifierFamily", "mollifier_family",
    "mollifier_normalizer", "mollifier_l2_norm", "mollifier_tail",
    "l1_modulus", "build_phi_r", "build_psi_r", "required_mollifier_band",
    "smallest_resolved_scale", "psi_hat_coefficients", "SlopeFit",
    "fit_loglog", "default_ladder", "mollifier_scaling_report",
    "negative_sobolev_decay", "cz_probe", "cz_consistency",
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


def _leggauss(n: int) -> Tuple[np.ndarray, np.ndarray]:
    if n not in _LEG_CACHE:
        _LEG_CACHE[n] = np.polynomial.legendre.leggauss(int(n))
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
                         intervals: Sequence[Tuple[float, float]],
                         nodes: int = 96) -> float:
    s, w = _su2_class_rule(intervals, nodes)
    if s.size == 0:
        return 0.0
    return float(np.sum(w * fn(s)))


def _torus_cube_rule(model: GroupModel, R: float,
                     nodes_axis: Optional[int] = None, pad: float = 0.0
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre rule on the coordinate cube containing the
    support ``rho(x) <= R`` around 0 in ``T^n``, widened by ``pad`` per
    side (capped at the whole torus)."""
    n = model.n
    if nodes_axis is None:
        nodes_axis = 24 if n <= 3 else 12
    if n > 4:
        raise GmultError("mollifier quadrature on the torus supports n <= 4")
    L = 0.5 if R >= 2.0 else math.asin(0.5 * R) / math.pi
    L = min(0.5, L + pad)
    x1, w1 = _panel(-L, L, nodes_axis)
    axes = np.meshgrid(*([x1] * n), indexing="ij")
    pts = np.stack([a.reshape(-1) for a in axes], axis=0)
    wts = np.ones(pts.shape[1])
    for wnd in np.meshgrid(*([w1] * n), indexing="ij"):
        wts = wts * wnd.reshape(-1)
    return pts, wts


def _torus_rho(points: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(4.0 * np.sin(math.pi * points) ** 2, axis=0))


def mollifier_normalizer(model: GroupModel, r: float,
                         profile: Callable = bump_profile) -> float:
    """Normalization constant making the scaled profile a unit-mass density.

    Computed by quadrature against the bi-invariant radial coordinate; grows
    like ``1/r`` as ``r`` shrinks because the support ball has Haar measure
    comparable to ``r``.
    """
    R = _support_radius(model, r)
    if model.kind == "su2":
        mass = _su2_radial_integral(
            lambda s: profile(2.0 * np.sin(0.5 * s) / R),
            _su2_support_panels(R))
    else:
        pts, wts = _torus_cube_rule(model, R)
        mass = float(np.sum(wts * profile(_torus_rho(pts) / R)))
    if mass <= 0:
        raise GmultError(f"mollifier profile has nonpositive mass at r={r!r}")
    return 1.0 / mass


@dataclass(frozen=True)
class MollifierFamily:
    """One scale of the mollifier family: profile, scale, normalization.

    ``density(rho_values)`` evaluates the central density through the radial
    coordinate; ``support_radius`` is the radius in ``rho`` units beyond
    which the density vanishes.
    """

    model: GroupModel
    r: float
    c_r: float
    profile: Callable = bump_profile

    @property
    def support_radius(self) -> float:
        return _support_radius(self.model, self.r)

    def density(self, rho_values):
        return self.c_r * self.profile(np.asarray(rho_values, dtype=float)
                                       / self.support_radius)


def mollifier_family(model: GroupModel, r: float,
                     profile: Callable = bump_profile) -> MollifierFamily:
    return MollifierFamily(model, float(r),
                           mollifier_normalizer(model, r, profile), profile)


def mollifier_l2_norm(model: GroupModel, r: float,
                      profile: Callable = bump_profile) -> float:
    """Quadrature L2 norm of ``phi_r``; grows like ``r^{-1/2}``."""
    fam = mollifier_family(model, r, profile)
    R = fam.support_radius
    if model.kind == "su2":
        sq = _su2_radial_integral(
            lambda s: fam.density(2.0 * np.sin(0.5 * s)) ** 2,
            _su2_support_panels(R))
    else:
        pts, wts = _torus_cube_rule(model, R)
        sq = float(np.sum(wts * fam.density(_torus_rho(pts)) ** 2))
    return math.sqrt(max(sq, 0.0))


def mollifier_tail(model: GroupModel, r: float, threshold: float,
                   profile: Callable = bump_profile) -> float:
    """Mass of ``phi_r`` on the shell ``rho(g) >= threshold^{1/n}``.

    Exactly zero once the exclusion radius reaches the (compact) support;
    below that it is evaluated by quadrature on the remaining shell.
    """
    if threshold < 0:
        raise GmultError("the exclusion scale must be nonnegative")
    fam = mollifier_family(model, r, profile)
    R = fam.support_radius
    tau = _support_radius(model, threshold) if threshold > 0 else 0.0
    if tau >= min(R, 2.0):
        return 0.0
    if model.kind == "su2":
        s_lo = 2.0 * math.asin(0.5 * min(tau, 2.0)) if tau > 0 else 0.0
        if R >= 2.0:
            shells = [(s_lo, 2.0 * math.pi - s_lo)]
        else:
            s_hi = 2.0 * math.asin(0.5 * R)
            if s_lo >= s_hi:
                return 0.0
            shells = [(s_lo, s_hi),
                      (2.0 * math.pi - s_hi, 2.0 * math.pi - s_lo)]
        return _su2_radial_integral(
            lambda s: fam.density(2.0 * np.sin(0.5 * s)), shells)
    pts, wts = _torus_cube_rule(model, R,
                                nodes_axis=32 if model.n <= 3 else 12)
    rho = _torus_rho(pts)
    keep = rho >= tau
    return float(np.sum(wts[keep] * fam.density(rho[keep])))


# ---------------------------------------------------------------------------
# Translation modulus
# ---------------------------------------------------------------------------

def _su2_point_half_angle(point: Sequence[float]) -> float:
    """Half the class angle of a group point given in Euler coordinates."""
    U = su2_matrix(tuple(point))
    half_trace = float(np.clip(0.5 * np.real(np.trace(U)), -1.0, 1.0))
    return math.acos(half_trace)


def l1_modulus(model: GroupModel, r: float, h) -> float:
    """L1 norm of ``phi_r( . h^{-1}) - phi_r`` by joint radial quadrature.

    On the 3-sphere model the integrand depends only on the half class angle
    ``alpha`` of the integration variable and the angle ``gamma`` between the
    rotation axes; the pair density is
    ``(2/pi) sin^2(alpha) * (1/2) sin(gamma)`` and the translated half angle
    ``beta`` satisfies ``cos beta = cos alpha cos delta
    + sin alpha sin delta cos gamma`` with ``delta`` the half class angle of
    ``h``.  On the torus the translate difference is integrated over a cube
    containing both supports.  The result is bounded by a constant times
    ``rho(h) / r^{1/n}`` in the scaling regime.
    """
    fam = mollifier_family(model, r)
    R = fam.support_radius
    if model.kind == "su2":
        delta = _su2_point_half_angle(h)
        if delta == 0.0:
            return 0.0
        a_sup = math.asin(0.5 * min(R, 2.0))
        reach = a_sup + delta + 0.05
        if R >= 2.0 or reach >= 0.5 * math.pi:
            panels = [(0.0, math.pi)]
        else:
            panels = [(0.0, reach), (math.pi - reach, math.pi)]
        g1, wg = _panel(0.0, math.pi, 96)
        cos_g = np.cos(g1)
        w_gamma = 0.5 * np.sin(g1) * wg
        total = 0.0
        for a, b in panels:
            al, wa = _panel(a, b, 192)
            dens_a = fam.density(2.0 * np.sin(al))
            cos_b = (np.cos(al)[:, None] * math.cos(delta)
                     + np.sin(al)[:, None] * math.sin(delta) * cos_g[None, :])
            beta = np.arccos(np.clip(cos_b, -1.0, 1.0))
            dens_b = fam.density(2.0 * np.sin(beta))
            diff = np.abs(dens_b - dens_a[:, None])
            w_alpha = (2.0 / math.pi) * np.sin(al) ** 2 * wa
            total += float(np.sum(w_alpha[:, None] * w_gamma[None, :] * diff))
        return total
    shift = np.asarray(h, dtype=float).reshape(-1)
    if shift.size != model.n:
        raise GmultError(f"torus point must have {model.n} coordinates")
    pts, wts = _torus_cube_rule(
        model, R, 32 if model.n <= 3 else 12,
        pad=0.5 * float(np.max(np.abs(shift))) + 1e-6)
    diff = np.abs(fam.density(_torus_rho(pts - shift[:, None]))
                  - fam.density(_torus_rho(pts)))
    return float(np.sum(wts * diff))


# ---------------------------------------------------------------------------
# Grid-sampled mollifiers (resolution-guarded)
# ---------------------------------------------------------------------------

def _axis_spacing(grid: GroupGrid) -> float:
    """Node spacing along the least-resolved axis, in ``rho`` units."""
    model = grid.model
    if model.kind == "su2":
        return math.pi / (grid.shape[1] + 1)
    return 2.0 * math.pi / grid.shape[0]


def required_mollifier_band(model: GroupModel, r: float,
                            min_nodes: int = 8) -> int:
    """Smallest grid band placing ``min_nodes`` nodes across the support
    radius of ``phi_r``."""
    R = min(_support_radius(model, r), 2.0)
    if model.kind == "su2":
        return max(2, int(math.ceil(min_nodes * math.pi / R)) - 2)
    return max(2, int(math.ceil(0.5 * (min_nodes * 2.0 * math.pi / R - 1.0))))


def smallest_resolved_scale(model: GroupModel, band: int,
                            min_nodes: int = 8) -> float:
    """Smallest scale ``r`` whose support a band-``band`` grid resolves."""
    if model.kind == "su2":
        spacing = math.pi / (band + 2)
    else:
        spacing = 2.0 * math.pi / (2 * band + 1)
    return float((min_nodes * spacing) ** model.n)


def build_phi_r(model: GroupModel, grid: GroupGrid, r: float,
                profile: Callable = bump_profile,
                min_nodes: int = 8) -> Tuple[GroupFunction, float]:
    """Sample ``phi_r`` on a grid, normalizing by the grid's own quadrature.

    Raises ``UnderResolvedError`` when fewer than ``min_nodes`` grid nodes
    span the support radius; the message names both the smallest usable
    scale for this grid and the band that would resolve the request.
    """
    if grid.model != model:
        raise GmultError("grid was built for a different model")
    R = _support_radius(model, r)
    count = min(R, 2.0) / _axis_spacing(grid)
    if count < min_nodes:
        raise UnderResolvedError(
            f"support radius {R:.6g} spans only {count:.2f} grid nodes "
            f"(need >= {min_nodes}); smallest usable r on this grid is "
            f"{smallest_resolved_scale(model, grid.band, min_nodes):.6g}, "
            f"or rebuild the grid with band >= "
            f"{required_mollifier_band(model, r, min_nodes)}")
    raw = profile(np.sqrt(np.maximum(rho_squared_samples(grid), 0.0)) / R)
    mass = float(np.real(grid.integrate(raw)))
    if mass <= 0:
        raise GmultError("mollifier samples have nonpositive mass")
    c_r = 1.0 / mass
    return GroupFunction(grid, c_r * raw), c_r


def build_psi_r(model: GroupModel, grid: GroupGrid, r: float,
                profile: Callable = bump_profile,
                min_nodes: int = 8) -> GroupFunction:
    """Dyadic difference ``phi_r - phi_{r/2}`` on a grid (zero mean by
    construction)."""
    fine, _ = build_phi_r(model, grid, 0.5 * r, profile, min_nodes)
    coarse, _ = build_phi_r(model, grid, r, profile, min_nodes)
    return GroupFunction(grid, coarse.samples - fine.samples)


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
    ``rho <= R``: ``s_t = (1/(t+1)) (1/pi) integral F chi_t sin^2(s/2) ds``."""
    panels = _su2_support_panels(R)
    width = max(b - a for a, b in panels)
    nodes = max(48, int(0.35 * (band + 2) * width) + 16)
    s, w = _su2_class_rule(panels, nodes)
    F = values_fn(s) * w
    x = 2.0 * np.cos(0.5 * s)
    prev = np.ones_like(s)
    cur = x.copy()
    coeffs = np.empty(band + 1)
    coeffs[0] = np.sum(F * prev)
    if band >= 1:
        coeffs[1] = np.sum(F * cur)
    for t in range(2, band + 1):
        prev, cur = cur, x * cur - prev
        coeffs[t] = np.sum(F * cur)
    return coeffs / (np.arange(band + 1) + 1.0)


def _psi_radial_values(model: GroupModel, r: float,
                       profile: Callable) -> Tuple[Callable, float]:
    fam_c = mollifier_family(model, r, profile)
    fam_f = mollifier_family(model, 0.5 * r, profile)

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
                         profile: Callable = bump_profile,
                         band: Optional[int] = None,
                         rel_tol: float = 1e-9) -> CentralSequence:
    """Central Fourier coefficients of the dyadic difference ``psi_r``.

    With ``band=None`` the band grows adaptively until the trailing
    Plancherel-weighted coefficients fall below ``rel_tol`` of the
    accumulated norm; the sub-threshold tail is then dropped, so the
    support certificate of the returned sequence means "negligible at the
    requested relative tolerance", not exact vanishing (the smooth bump's
    spectrum has no finite support).  An explicit ``band`` computes exactly
    that truncation instead.  The coefficients vanish on odd labels because
    the radial coordinate does not separate the two central elements (the
    mirror support panels cancel there).
    """
    _require_su2(model, "psi_hat_coefficients")
    values_fn, R = _psi_radial_values(model, r, profile)
    if band is None:
        coeffs = _adaptive_band(values_fn, R, max(32, int(12.0 / R)),
                                rel_tol)
    else:
        coeffs = _su2_central_coefficients(values_fn, R, band)
    peak = float(np.max(np.abs(coeffs))) if coeffs.size else 0.0
    if peak > 0:
        coeffs[np.abs(coeffs) < 1e-14 * peak] = 0.0
    values = {t: complex(coeffs[t]) for t in range(coeffs.size)}
    return CentralSequence(model, values, zero_beyond=True)


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


def fit_loglog(scales: Sequence[float], values: Sequence[float]) -> SlopeFit:
    xs = np.asarray(scales, dtype=float)
    ys = np.asarray(values, dtype=float)
    if xs.size != ys.size:
        raise GmultError("scales and values must have matching lengths")
    if xs.size < 4:
        raise GmultError("ladder too short: slope fits need >= 4 points")
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
# Matrix-coefficient lines by label recurrence
# ---------------------------------------------------------------------------

def _line_seed(mu: int, nu: int, theta: np.ndarray) -> np.ndarray:
    """Closed-form ``d^{t_min}_{mu nu}`` at the lowest admissible label
    ``t_min = max(|mu|, |nu|)``, for extremal lines (``nu = t_min`` or
    ``mu = -t_min``); labels and weights are in doubled (integer) units.

    Both cases reduce to the highest-weight column entry
    ``d^j_{m, j} = binom(2j, j+m)^{1/2} cos^{j+m}(theta/2)
    sin^{j-m}(theta/2)`` (the second via ``d_{mn} = d_{-n,-m}``).
    """
    if (mu - nu) % 2 != 0:
        raise GmultError("line weights must share parity")
    t_min = max(abs(mu), abs(nu))
    if t_min == 0:
        return np.ones_like(theta)
    if nu == t_min:
        k_cos, k_sin = (t_min + mu) // 2, (t_min - mu) // 2
    elif mu == -t_min:
        k_cos, k_sin = (t_min - nu) // 2, (t_min + nu) // 2
    else:
        raise GmultError("closed-form seed exists only for extremal lines")
    log_coef = 0.5 * (math.lgamma(t_min + 1) - math.lgamma(k_cos + 1)
                      - math.lgamma(k_sin + 1))
    half = 0.5 * theta
    return math.exp(log_coef) * np.cos(half) ** k_cos * np.sin(half) ** k_sin


class _LineBatch:
    """Batched three-term recurrence over all fixed-offset coefficient lines
    ``d^t_{mu, mu + offset}`` of one parity, advanced label by label.

    Rows are indexed by the left twice-weight ``mu``; a row activates (with
    its closed-form seed) once ``t`` reaches the lowest admissible label of
    its line.  The down-coupling coefficient vanishes at activation, so a
    single seed suffices; the only degenerate step, the diagonal ``mu = 0``
    line at ``t = 0 -> 2``, is stepped explicitly.
    """

    def __init__(self, parity: int, band: int, theta: np.ndarray,
                 offset: int = 0):
        if offset % 2 != 0:
            raise GmultError("line offset must be even")
        self.parity = parity % 2
        self.band = int(band)
        self.theta = theta
        self.offset = int(offset)
        self.mus = np.array([mu for mu in range(-band, band + 1 - offset)
                             if abs(mu) % 2 == self.parity], dtype=int)
        self.nus = self.mus + offset
        self.tmins = np.maximum(np.abs(self.mus), np.abs(self.nus))
        self.index = {int(mu): i for i, mu in enumerate(self.mus)}
        self.cur = np.zeros((self.mus.size, theta.size))
        self.prev = np.zeros((self.mus.size, theta.size))
        self.cos_theta = np.cos(theta)
        self.t: Optional[int] = None

    def advance(self) -> int:
        """Move to the next label of this parity; returns the new label."""
        t_new = self.parity if self.t is None else self.t + 2
        rec = self.tmins <= t_new - 2
        degenerate = (self.offset == 0 and t_new == 2
                      and 0 in self.index)
        if degenerate:
            rec = rec.copy()
            rec[self.index[0]] = False
        if rec.any():
            j = 0.5 * (t_new - 2)
            mm = 0.5 * self.mus[rec]
            nn = 0.5 * self.nus[rec]
            lead = j * np.sqrt((j + 1.0) ** 2 - mm ** 2) \
                * np.sqrt((j + 1.0) ** 2 - nn ** 2)
            a = (2.0 * j + 1.0) * j * (j + 1.0) / lead
            b = -(2.0 * j + 1.0) * mm * nn / lead
            c = -(j + 1.0) * np.sqrt(np.maximum(j * j - mm ** 2, 0.0)) \
                * np.sqrt(np.maximum(j * j - nn ** 2, 0.0)) / lead
            nxt = ((a[:, None] * self.cos_theta[None, :] + b[:, None])
                   * self.cur[rec] + c[:, None] * self.prev[rec])
            self.prev[rec] = self.cur[rec]
            self.cur[rec] = nxt
        if degenerate:
            i = self.index[0]
            self.prev[i] = self.cur[i]
            self.cur[i] = self.cos_theta.copy()
        for i in np.nonzero(self.tmins == t_new)[0]:
            self.prev[i] = 0.0
            self.cur[i] = _line_seed(int(self.mus[i]), int(self.nus[i]),
                                     self.theta)
        self.t = t_new
        return t_new

    def rows_active(self) -> np.ndarray:
        assert self.t is not None
        return self.tmins <= self.t


# ---------------------------------------------------------------------------
# Negative-order Sobolev decay
# ---------------------------------------------------------------------------

_VANISHING_ORDERS = {"one": 0, "rho2": 2, "adcoef": 1}


def _sobolev_sq_radial(model: GroupModel, coeffs: np.ndarray,
                       s: float) -> float:
    t = np.arange(coeffs.size)
    brackets = np.array([japanese_bracket(model, int(tt)) for tt in t])
    return float(np.sum((t + 1.0) ** 2 * brackets ** (-2.0 * s)
                        * np.abs(coeffs) ** 2))


def _adcoef_sobolev_sq(model: GroupModel, r: float, s: float,
                       profile: Callable, rel_tol: float,
                       band: Optional[int] = None) -> float:
    """Squared H^{-s} norm of ``q psi_r`` for ``q`` the off-diagonal
    fundamental coefficient with twice-weights (-1, +1) (vanishing order 1).

    The product's Fourier blocks are supported on the second superdiagonal;
    each entry reduces to a polar integral of the central profile lines
    against one off-diagonal coefficient line, evaluated with a
    Gauss-Legendre rule exact for the polynomial degrees involved.
    """
    seq = psi_hat_coefficients(model, r, profile, band=band,
                               rel_tol=rel_tol)
    band = seq.support_band
    even = np.array([float(np.real(seq.value(t))) for t in range(band + 1)])
    n_theta = band // 2 + 10
    x, glw = _leggauss(n_theta)
    theta = np.arccos(np.clip(x, -1.0, 1.0))
    # Central profile lines Psi_c(theta) = sum_t (t+1) s_t d^t_{cc}(theta)
    # over even twice-weights c.
    diag = _LineBatch(0, band, theta, offset=0)
    psi_lines = np.zeros((diag.mus.size, theta.size))
    while True:
        t = diag.advance()
        if t > band:
            break
        if even[t] != 0.0:
            act = diag.rows_active()
            psi_lines[act] += (t + 1.0) * even[t] * diag.cur[act]
    # Left factor folded with the quadrature: (1/2) w sin(theta/2) Psi_{mu+1}.
    q_line = np.sin(0.5 * theta)
    off = _LineBatch(1, band + 1, theta, offset=2)
    g_rows = np.zeros((off.mus.size, theta.size))
    for i, mu in enumerate(off.mus):
        c = int(mu) + 1
        if c in diag.index:
            g_rows[i] = 0.5 * glw * q_line * psi_lines[diag.index[c]]
    total = 0.0
    while True:
        u = off.advance()
        if u > band + 1:
            break
        act = off.rows_active()
        if not act.any():
            continue
        entries = np.sum(g_rows[act] * off.cur[act], axis=1)
        block_sq = float(np.sum(entries ** 2))
        weight = japanese_bracket(model, int(u)) ** (-2.0 * s)
        total += (u + 1.0) * weight * block_sq
    return total


def negative_sobolev_decay(model: GroupModel, q: str = "rho2", s: float = 0.0,
                           ladder: Optional[Sequence[float]] = None,
                           profile: Callable = bump_profile,
                           rel_tol: float = 1e-9) -> Dict[str, object]:
    """Fitted decay exponent of ``|| q psi_r ||_{H^{-s}}`` over a ladder.

    ``q`` selects a factor vanishing at the identity to a known order:
    ``"one"`` (order 0), ``"rho2"`` (the squared radial coordinate,
    order 2), or ``"adcoef"`` (an off-diagonal fundamental matrix
    coefficient, order 1).  The expected exponent is
    ``(order + s)/n - 1/2``.  ``rel_tol`` is the relative truncation
    tolerance of the coefficient bands; for ``"adcoef"`` (a quadratic-cost
    route) a looser value such as 1e-4 keeps fine scales affordable at a
    per-point relative error far below slope-fit resolution.
    """
    _require_su2(model, "negative_sobolev_decay")
    if q not in _VANISHING_ORDERS:
        raise GmultError(f"unknown vanishing factor {q!r}; "
                         f"choose from {sorted(_VANISHING_ORDERS)}")
    if not 0.0 <= s <= 1.0 + 0.5 * model.n:
        raise GmultError(f"the Sobolev order s={s} is outside [0, 1 + n/2]")
    rs = list(ladder) if ladder is not None else default_ladder()
    norms: List[float] = []
    for r in rs:
        if q == "adcoef":
            norms.append(math.sqrt(max(
                _adcoef_sobolev_sq(model, r, s, profile, rel_tol), 0.0)))
            continue
        values_fn, R = _psi_radial_values(model, r, profile)
        if q == "rho2":
            def weighted(sv, base=values_fn):
                return (2.0 - 2.0 * np.cos(sv)) * base(sv)
        else:
            weighted = values_fn
        coeffs = _adaptive_band(weighted, R, max(32, int(12.0 / R)), rel_tol)
        norms.append(math.sqrt(max(_sobolev_sq_radial(model, coeffs, s),
                                   0.0)))
    fit = fit_loglog(rs, norms)
    order = _VANISHING_ORDERS[q]
    expected = (order + s) / model.n - 0.5
    return {
        "model": model.name, "q": q, "s": float(s),
        "vanishing_order": order,
        "ladder": [float(r) for r in rs],
        "norms": [float(v) for v in norms],
        "fit": fit.as_dict(),
        "expected_slope": float(expected),
    }


# ---------------------------------------------------------------------------
# Second-difference scaling probe
# ---------------------------------------------------------------------------

def _symbol_diagonals(sym: MatrixSymbol, band: int,
                      tol: float = 1e-12) -> Dict[int, np.ndarray]:
    """Diagonal entries of a (required diagonal) symbol through ``band``."""
    diags: Dict[int, np.ndarray] = {}
    for t in range(band + 1):
        mat = sym.get(t)
        off = float(np.max(np.abs(mat - np.diag(np.diag(mat)))))
        scale = max(float(np.max(np.abs(mat))), 1.0)
        if off > tol * scale:
            raise GmultError(
                "the scaling probe's fast path needs a diagonal symbol; "
                f"label {t} has off-diagonal mass {off:.3g}")
        diags[t] = np.diag(mat).astype(complex)
    return diags


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


def _times_chi1(masses: np.ndarray) -> np.ndarray:
    """Masses ``W[t, i]`` (see `_cz_norm_sq`) of a diagonal kernel times
    ``chi_1``: squared spin-1/2 Clebsch-Gordan weights send each mass to
    ``(t+1, i+1)``, ``(t+1, i)``, ``(t-1, i)`` and ``(t-1, i-1)`` with
    weights ``(i+1, t-i+1, t-i, i) / (t+1)``."""
    t = np.arange(masses.shape[0], dtype=float)[:, None]
    i = t.T
    per_dim = masses / (t + 1.0)
    out = np.zeros_like(masses)
    out[1:, 1:] += per_dim[:-1, :-1] * (i[:, :-1] + 1.0)
    out[1:] += per_dim[:-1] * (t[:-1] - i + 1.0)
    out[:-1] += per_dim[1:] * (t[1:] - i)
    out[:-1, :-1] += per_dim[1:, 1:] * i[:, 1:]
    return out


def _cz_norm_sq(sym_diags: Dict[int, np.ndarray], coeffs: np.ndarray,
                m: int) -> float:
    """Squared Plancherel norm of the ``m``-fold second difference of a
    diagonal symbol times central coefficients, by an exact label stencil.

    The product's kernel is ``sum_t sum_mu W[t, i] t^t_{mu mu}`` with masses
    ``W[t, i] = (t+1) c_t sigma_t(mu)`` over ``i = (mu + t)/2``, and its
    squared norm is ``sum |W[t, i]|^2 / (t+1)``.  The second difference
    multiplies the kernel by ``rho^2 = 4 - chi_1^2``, and multiplying by
    ``chi_1`` moves each mass to labels ``t +- 1`` (`_times_chi1`).  So the
    norm of the truncated band comes out exactly in O(m B^2) whole-array
    steps on one ``(B + 2m + 1)^2`` buffer; the stencil is real, so the real
    and imaginary parts run separately.
    """
    size = coeffs.size + 2 * m
    masses = np.zeros((size, size), dtype=complex)
    for t in np.nonzero(coeffs)[0]:
        masses[t, :t + 1] = (t + 1.0) * coeffs[t] * sym_diags[t]
    dims = np.arange(1.0, size + 1.0)[:, None]
    total = 0.0
    for part in (masses.real, masses.imag):
        if part.any():
            for _ in range(m):
                part = 4.0 * part - _times_chi1(_times_chi1(part))
            total += float(np.sum(part ** 2 / dims))
    return total


def cz_probe(model: GroupModel, sym,
             ladder: Optional[Sequence[float]] = None,
             m: Optional[int] = None,
             profile: Callable = bump_profile,
             rel_tol: float = 1e-4) -> Dict[str, object]:
    """Scaling probe for dyadically localized second differences of a
    multiplier symbol.

    ``sym`` is either a diagonal ``MatrixSymbol`` (band-checked against the
    ladder's needs) or a callable ``t -> diagonal entries`` usable at any
    band (see ``riesz_field_diagonals`` / ``identity_diagonals``).

    Computes the Plancherel norm of the ``m``-fold second difference of
    ``sigma`` times the dyadic-piece coefficients over a scale ladder and
    fits the log-log slope; the probe passes when the slope is at least
    ``2 m / n - 1/2 - 0.1``, the exponent forced by the scaling of the
    dyadic pieces.  ``m`` defaults to half the even differentiability
    budget of the model (1 on the 3-sphere model).

    ``rel_tol`` truncates the dyadic-piece coefficients at that relative
    Plancherel-weighted size (the induced per-point norm error is of the
    same order, far below the 0.1 slope tolerance); the label stencil of
    `_cz_norm_sq` then gives each truncated norm exactly.
    """
    _require_su2(model, "cz_probe")
    if m is None:
        m = model.kappa // 2
    if m < 1:
        raise GmultError("the probe needs a positive difference power m")
    rs = list(ladder) if ladder is not None else default_ladder()
    if len(rs) < 4:
        raise GmultError("ladder too short: slope fits need >= 4 points")
    norms: List[float] = []
    bands: List[int] = []
    for r in rs:
        seq = psi_hat_coefficients(model, r, profile, rel_tol=rel_tol)
        band = seq.support_band
        if callable(sym):
            diags = {}
            for t in range(band + 1):
                row = np.asarray(sym(t), dtype=complex).reshape(-1)
                if row.size != t + 1:
                    raise GmultError(
                        f"diagonal provider returned {row.size} entries at "
                        f"label {t}; expected {t + 1}")
                diags[t] = row
        else:
            if band > sym.exact_band:
                raise BandOverflowError(
                    f"scale r={r!r} needs symbol data through band {band}, "
                    f"but the symbol is certified only through "
                    f"{sym.exact_band}; rebuild the symbol with a larger "
                    "band or raise the ladder")
            diags = _symbol_diagonals(sym, band)
        coeffs = np.array([float(np.real(seq.value(t)))
                           for t in range(band + 1)])
        norms.append(math.sqrt(max(_cz_norm_sq(diags, coeffs, m), 0.0)))
        bands.append(band)
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


def cz_consistency(model: GroupModel, sym: MatrixSymbol, r: float,
                   band: int = 20,
                   grid: Optional[GroupGrid] = None,
                   profile: Callable = bump_profile) -> Dict[str, object]:
    """Check the product-rule bound behind the scaling probe at one scale.

    Expands the second difference of ``sigma`` times the dyadic piece by the
    exact product rule and verifies numerically that the Plancherel norm of
    the left side is dominated by the weighted sum of the right-side pieces:
    each symbol factor is bounded by a bracket-weighted sup and each central
    factor by the bracket-compensated Plancherel norm.

    The dyadic piece is truncated to ``band`` (the bound is structural --
    it holds for any central sequence -- so the truncated piece is an
    equally valid test vector, and it keeps the grid-based difference
    operators affordable).
    """
    _require_su2(model, "cz_consistency")
    seq = psi_hat_coefficients(model, r, profile, band=band)
    store = int(band)
    if sym.exact_band < store:
        raise BandOverflowError(
            f"the consistency check at band {store} needs symbol data "
            f"through that band; it is certified only through "
            f"{sym.exact_band}")
    if grid is None:
        grid = default_grid(model, store + 4)
    psi_sym = seq.as_symbol(store)
    sigma = sym.restrict(store)
    product = symbol_product(sigma, psi_sym)
    lhs = plancherel_norm(laplace_difference(product, grid))

    # The difference operators push mass two labels past the truncation
    # edge, so every sup and norm on the right side ranges through store+2.
    labels = list(labels_up_to(model, store + 2))
    brackets = {lb: japanese_bracket(model, lb) for lb in labels}

    def weighted_sup(symbol: MatrixSymbol, exponent: float) -> float:
        best = 0.0
        for lb in labels:
            best = max(best,
                       brackets[lb] ** exponent * op_norm(symbol.get(lb)))
        return best

    terms: Dict[str, float] = {}
    # Zeroth order: sigma against the second difference of the dyadic piece.
    lap_psi = laplace_central(seq).as_symbol(store + 2)
    terms["order-0"] = weighted_sup(sigma, 0.0) * plancherel_norm(lap_psi)
    # Top order: second difference of sigma against the bracket-compensated
    # dyadic piece.
    lap_sigma = laplace_difference(sigma, grid)
    terms["order-2"] = (weighted_sup(lap_sigma, 2.0)
                        * sobolev_norm(psi_sym, -2.0))
    # First order: the cross terms of the product rule, pairing transposed
    # first differences over the difference shell.
    cross_total = 0.0
    for lb in model.delta0:
        d = irrep_dimension(model, lb)
        for i in range(d):
            for j in range(d):
                wij = DifferenceWord(model, ((lb, i, j),))
                wji = DifferenceWord(model, ((lb, j, i),))
                csym = weighted_sup(apply_difference(wij, sigma, grid), 1.0)
                cpsi = sobolev_norm(apply_difference(wji, psi_sym, grid),
                                    -1.0)
                cross_total += csym * cpsi
    terms["order-1"] = cross_total
    rhs = sum(terms.values())
    return {
        "model": model.name, "r": float(r), "band": int(store),
        "lhs": float(lhs), "rhs": float(rhs),
        "terms": {k: float(v) for k, v in terms.items()},
        "passed": bool(lhs <= rhs * (1.0 + 1e-9) + 1e-12),
    }
