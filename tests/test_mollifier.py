"""Scale-family machinery: bump profiles, normalization and L2 scaling,
spectral coefficients of the dyadic shell, decay probes.

The label recurrence for Wigner-d coefficient lines (`_LineBatch`) lives
here as the engine of two quadrature oracles: the off-diagonal decay norm
and the second-difference norm.  So do the grid-route references: the
sampled mollifier `build_phi_r` (the oracle of `grid_normalizer`), the
sampled dyadic difference `build_psi_r` (the grid oracle of
`psi_hat_coefficients`) and `cz_consistency` (the grid oracle of
`_cz_norm_sq`), both fed by the fixed-band truncation `psi_r_fixed_band`
of the dyadic piece; the full-square ``chi_1`` stencil `_times_chi1` (the
oracle of the packed one-parity stencil); and the complex-mass form of
`_cz_norm_sq` (its bitwise oracle)."""
import math
from typing import Dict, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmult.central import CentralSequence, laplace_central
from gmult.errors import BandOverflowError, GmultError, UnderResolvedError
from gmult.grids import GroupFunction, GroupGrid
from gmult.groups import (GroupModel, irrep_dimension, japanese_bracket,
                          labels_up_to, model_from_name)
from gmult.mollifier import (_adaptive_band, _axis_spacing, _cz_norm_sq,
                             _leggauss, _packed_dims, _psi_radial_values,
                             _require_su2, _sobolev_sq_radial,
                             _su2_central_coefficients, _su2_class_rule,
                             _su2_support_panels, _support_radius,
                             _times_chi1_packed, _times_q,
                             bump_profile, cz_probe, default_ladder,
                             fit_loglog, grid_normalizer, identity_diagonals,
                             mollifier_family, mollifier_l2_norm,
                             mollifier_normalizer, mollifier_scaling_report,
                             negative_sobolev_decay, psi_hat_coefficients,
                             required_mollifier_band, riesz_field_diagonals,
                             smallest_resolved_scale)
from gmult.symbols import (DifferenceWord, MatrixSymbol, apply_difference,
                           default_grid, laplace_difference, symbol_product)
from gmult.transform import fourier_forward, plancherel_norm, sobolev_norm

from conftest import integrate, op_norm, rho_squared_samples


# ---------------------------------------------------------------------------
# Profile
# ---------------------------------------------------------------------------

def test_bump_profile_plateau_and_support():
    v = np.array([0.0, 0.25, 0.5, 0.75, 0.999, 1.0, 1.5])
    out = bump_profile(v)
    assert np.allclose(out[:3], 1.0)
    assert 0.0 < out[3] < 1.0
    assert out[4] > 0.0
    assert out[5] == 0.0
    assert out[6] == 0.0
    assert isinstance(bump_profile(0.3), float)


@given(v=st.floats(min_value=0.0, max_value=2.0))
def test_bump_profile_range(v):
    out = bump_profile(v)
    assert 0.0 <= out <= 1.0


@given(a=st.floats(min_value=0.5, max_value=1.0),
       b=st.floats(min_value=0.5, max_value=1.0))
def test_bump_profile_monotone_tail(a, b):
    lo, hi = min(a, b), max(a, b)
    assert bump_profile(lo) >= bump_profile(hi) - 1e-12


# ---------------------------------------------------------------------------
# Families and normalization
# ---------------------------------------------------------------------------

def test_family_support_radius(su2, torus3):
    fam = mollifier_family(su2, 0.125)
    assert fam.support_radius == pytest.approx(0.5)  # r^(1/3)
    assert fam.c_r > 0
    big = mollifier_family(su2, 64.0)
    assert big.support_radius == pytest.approx(4.0)
    t = mollifier_family(torus3, 0.001)
    assert t.support_radius == pytest.approx(0.1)


def test_scaling_exponents_torus(torus3):
    rep = mollifier_scaling_report(torus3, default_ladder(3, 7))
    assert rep["c_r_fit"]["slope"] == pytest.approx(-1.0, abs=0.05)
    assert rep["l2_fit"]["slope"] == pytest.approx(-0.5, abs=0.05)
    assert rep["c_r_fit"]["r_squared"] > 0.999
    assert rep["expected"] == {"c_r": -1.0, "l2": -0.5}


def test_normalizer_vs_family(su2):
    r = 0.5
    assert mollifier_normalizer(su2, r) == pytest.approx(
        mollifier_family(su2, r).c_r, rel=1e-12)
    assert mollifier_l2_norm(su2, r) > mollifier_normalizer(su2, r) ** 0.0


# ---------------------------------------------------------------------------
# Log-log fits
# ---------------------------------------------------------------------------

def test_fit_loglog_exact_line():
    rs = [0.5, 0.25, 0.125, 0.0625, 0.03125]
    vals = [3.0 * r ** -0.75 for r in rs]
    fit = fit_loglog(rs, vals)
    assert fit.slope == pytest.approx(-0.75, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert math.exp(fit.intercept) == pytest.approx(3.0, rel=1e-12)
    assert fit.as_dict()["slope"] == fit.slope


def test_fit_loglog_short_ladder_rejected(su2):
    # four points on two (or one) scales give no slope to fit either
    for rs in ([0.5, 0.25, 0.125], [0.5, 0.5, 0.5, 0.5],
               [0.25, 0.25, 0.125, 0.125]):
        with pytest.raises(GmultError, match="4 distinct scales"):
            fit_loglog(rs, [1.0, 2.0, 4.0, 8.0][:len(rs)])
    # the probes refuse such a ladder before any work
    ladder = [0.5, 0.5, 0.25, 0.125]
    with pytest.raises(GmultError, match="4 distinct scales"):
        cz_probe(su2, identity_diagonals, ladder=ladder)
    with pytest.raises(GmultError, match="4 distinct scales"):
        negative_sobolev_decay(su2, ladder=ladder)


def test_default_ladder():
    assert default_ladder() == [2.0 ** -k for k in range(4, 10)]
    assert default_ladder(2, 4) == [0.25, 0.125, 0.0625]


# ---------------------------------------------------------------------------
# Grid realizations and resolution guards
# ---------------------------------------------------------------------------

def build_phi_r(model: GroupModel, grid: GroupGrid,
                r: float) -> Tuple[GroupFunction, float]:
    """Sample ``phi_r`` on a grid, normalizing by the grid's own quadrature.

    Raises ``UnderResolvedError`` when fewer than 8 grid nodes span the
    support radius; the message names both the smallest usable scale for
    this grid and the band that would resolve the request.
    """
    if grid.model != model:
        raise GmultError("grid was built for a different model")
    R = _support_radius(model, r)
    count = min(R, 2.0) / _axis_spacing(grid)
    if count < 8:
        raise UnderResolvedError(
            f"support radius {R:.6g} spans only {count:.2f} grid nodes "
            f"(need >= 8); smallest usable r on this grid is "
            f"{smallest_resolved_scale(model, grid.band):.6g}, "
            f"or rebuild the grid with band >= "
            f"{required_mollifier_band(model, r)}")
    raw = bump_profile(np.sqrt(np.maximum(rho_squared_samples(grid), 0.0)) / R)
    mass = float(np.real(integrate(grid, raw)))
    if mass <= 0:
        raise GmultError("mollifier samples have nonpositive mass")
    c_r = 1.0 / mass
    return GroupFunction(grid, c_r * raw), c_r


def test_build_phi_r_normalized(su2, torus3):
    for model, band, r in ((su2, 20, 2.0), (torus3, 25, 1.0)):
        grid = default_grid(model, band)
        phi, c_r = build_phi_r(model, grid, r)
        total = integrate(grid, phi.samples)
        assert total == pytest.approx(1.0, rel=1e-12)
        assert c_r == pytest.approx(mollifier_normalizer(model, r), rel=5e-3)


def test_build_phi_r_under_resolved(su2):
    grid = default_grid(su2, 12)
    with pytest.raises(UnderResolvedError) as exc:
        build_phi_r(su2, grid, 0.01)
    msg = str(exc.value)
    assert "band" in msg
    # the reduced sum keeps the oracle's guard and message
    with pytest.raises(UnderResolvedError) as fast:
        grid_normalizer(su2, grid, 0.01)
    assert str(fast.value) == msg
    with pytest.raises(GmultError, match="different model"):
        grid_normalizer(model_from_name("torus-3"), grid, 1.0)


@pytest.mark.parametrize("group", ["su2", "torus-2", "torus-3"])
@pytest.mark.parametrize("r", [1.0 / 16.0, 0.5, 8.0])
def test_grid_normalizer_matches_sampled_oracle(group, r):
    # r = 8 puts the whole group inside the support (R >= 2: one panel on
    # SU(2), the full box on the torus); each case runs at the smallest
    # resolving band and three bands above it
    model = model_from_name(group)
    band = required_mollifier_band(model, r)
    for b in (band, band + 3):
        grid = default_grid(model, b)
        _, oracle = build_phi_r(model, grid, r)
        assert grid_normalizer(model, grid, r) == pytest.approx(
            oracle, rel=1e-13, abs=0.0)


def test_resolution_helpers(su2, torus3):
    for model in (su2, torus3):
        band = required_mollifier_band(model, 0.125)
        floor_r = smallest_resolved_scale(model, band)
        assert floor_r <= 0.125
        # shrinking the band pushes the resolvable floor up
        assert smallest_resolved_scale(model, max(4, band // 2)) > floor_r


def build_psi_r(model: GroupModel, grid: GroupGrid,
                r: float) -> GroupFunction:
    """Dyadic difference ``phi_r - phi_{r/2}`` on a grid (zero mean by
    construction)."""
    fine, _ = build_phi_r(model, grid, 0.5 * r)
    coarse, _ = build_phi_r(model, grid, r)
    return GroupFunction(grid, coarse.samples - fine.samples)


def test_build_psi_r_is_dyadic_difference(su2):
    grid = default_grid(su2, 24)
    psi = build_psi_r(su2, grid, 2.0)
    phi_r, _ = build_phi_r(su2, grid, 2.0)
    phi_half, _ = build_phi_r(su2, grid, 1.0)
    assert np.allclose(psi.samples, phi_r.samples - phi_half.samples,
                       atol=1e-12)
    assert abs(integrate(grid, psi.samples)) < 1e-12


# ---------------------------------------------------------------------------
# Spectral coefficients of the shell
# ---------------------------------------------------------------------------

def test_psi_hat_matches_grid_transform(su2):
    r = 2.0
    grid = default_grid(su2, 24)
    psi = build_psi_r(su2, grid, r)
    hat = fourier_forward(psi, band=8)
    seq = psi_hat_coefficients(su2, r)
    assert seq.zero_beyond
    for t in range(9):
        block = hat.get(t)
        scalar = complex(np.trace(block)) / (t + 1)
        off = np.abs(block - scalar * np.eye(t + 1)).max()
        assert off < 5e-4  # centrality up to grid aliasing
        assert abs(scalar - seq.value(t)) < 5e-4 * max(1.0,
                                                       abs(seq.value(t)))


def test_psi_hat_l2_identity(su2):
    # Parseval on the radial coefficients vs direct class-measure
    # quadrature of |psi|^2
    r = 0.5
    seq = psi_hat_coefficients(su2, r, rel_tol=1e-9)
    spectral = sum((t + 1) ** 2 * abs(seq.value(t)) ** 2
                   for t in range(seq.support_band + 1))
    fam_r = mollifier_family(su2, r)
    fam_h = mollifier_family(su2, r / 2.0)
    nodes, weights = np.polynomial.legendre.leggauss(600)
    s = 0.5 * math.pi * (nodes + 1.0) + 0.0  # class angle in [0, pi]
    w = 0.5 * math.pi * weights
    # mirror panel [pi, 2pi] doubles the real even part
    def density(fam, ang):
        return fam.density(2.0 * np.sin(0.5 * ang))
    vals = density(fam_r, s) - density(fam_h, s)
    direct = (2.0 / math.pi) * np.sum(w * np.sin(0.5 * s) ** 2
                                      * np.abs(vals) ** 2)
    assert spectral == pytest.approx(direct, rel=1e-6)


def test_psi_hat_tolerance_monotone(su2):
    loose = psi_hat_coefficients(su2, 0.25, rel_tol=1e-4)
    tight = psi_hat_coefficients(su2, 0.25, rel_tol=1e-7)
    assert loose.support_band <= tight.support_band
    # the two agree well inside the loose support; coefficients near the
    # truncation edge carry noise of order the tolerance, so normalize
    # against the peak coefficient
    peak = max(abs(tight.value(t))
               for t in range(tight.support_band + 1))
    for t in range(0, loose.support_band // 2 + 1, 4):
        assert loose.value(t) == pytest.approx(tight.value(t),
                                               abs=1e-6 * peak)


def test_psi_hat_torus_not_supported(torus3):
    with pytest.raises(GmultError):
        psi_hat_coefficients(torus3, 0.5)


def _recurrence_central_coefficients(values_fn, R, band):
    """Oracle for `_su2_central_coefficients`: the same rule, with each
    character advanced by the Chebyshev recurrence
    ``chi_{t+1} = 2 cos(s/2) chi_t - chi_{t-1}`` and one sum per label."""
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


@pytest.mark.parametrize("r, band", [(8.0, 2), (8.0, 3), (8.0, 47),
                                     (2.0, 120), (1.0 / 16.0, 1198),
                                     (1.0 / 512.0, 8297)])
def test_blocked_coefficients_match_recurrence(su2, r, band):
    # r = 8 and r = 2 give R >= 2 (one full panel); the others give two
    # mirror panels, up to the decay probe's largest band.  The bands cover
    # a full last block (3, 120) and a trimmed one (2, 47, 1198, 8297).
    values_fn, R = _psi_radial_values(su2, r)
    fast = _su2_central_coefficients(values_fn, R, band)
    oracle = _recurrence_central_coefficients(values_fn, R, band)
    assert fast.shape == (band + 1,)
    peak = float(np.max(np.abs(oracle)))
    assert float(np.max(np.abs(fast - oracle))) <= 1e-12 * peak


@pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 24, 47, 48, 49, 96, 311,
                               498, 777])
def test_newton_gauss_rule_matches_eigensolver_and_moments(n):
    # 12 and 24 are the torus cube rules, 48 and up the SU(2) radial ones
    x, w = _leggauss(n)
    ref_x, _ = np.polynomial.legendre.leggauss(n)
    assert x.shape == w.shape == (n,)
    assert np.max(np.abs(x - ref_x)) <= 1e-15
    assert np.all(w > 0.0)
    moments = np.array([np.sum(w * x ** (2 * k)) for k in range(n)])
    exact = 2.0 / (2.0 * np.arange(n) + 1.0)
    assert np.max(np.abs(moments - exact)) <= 1e-14


def test_default_ladder_bands_are_pinned(su2):
    # the quadrature, growth schedule and trimming rule fix every band
    ladder = default_ladder()
    assert [psi_hat_coefficients(su2, r, rel_tol=1e-4).support_band
            for r in ladder] == [454, 572, 720, 860, 952, 1198]
    assert [psi_hat_coefficients(su2, r, rel_tol=1e-9).support_band
            for r in ladder] == [2226, 2808, 3504, 4300, 5372, 6768]


# ---------------------------------------------------------------------------
# Coefficient lines by label recurrence (oracle engine)
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
# Decay probes
# ---------------------------------------------------------------------------

def test_negative_sobolev_flat_factor(su2):
    out = negative_sobolev_decay(su2, q="one", s=0.0,
                                 ladder=default_ladder(4, 8))
    assert out["expected_slope"] == pytest.approx(-0.5)
    assert out["fit"]["slope"] == pytest.approx(-0.5, abs=0.02)
    assert out["fit"]["r_squared"] > 0.999


def test_negative_sobolev_guards(su2, torus3):
    with pytest.raises(GmultError):
        negative_sobolev_decay(torus3, q="rho2", s=0.0)
    with pytest.raises(GmultError):
        negative_sobolev_decay(su2, q="rho2", s=9.0)
    with pytest.raises(GmultError):
        negative_sobolev_decay(su2, q="nope", s=0.0)


def test_rho2_refuses_s_beyond_half_dimension(su2):
    # rho^2 psi_r has mean ~r^(2/3), so no slope above 2/3 is reachable and
    # the expected (2 + s)/3 - 1/2 passes it for s > 3/2
    ladder = [0.5, 0.25, 0.125, 0.0625]
    for s in (1.75, 2.5):
        with pytest.raises(GmultError, match=r"n/2 = 1\.5"):
            negative_sobolev_decay(su2, q="rho2", s=s, ladder=ladder)
    negative_sobolev_decay(su2, q="rho2", s=1.5, ladder=ladder)
    for q in ("one", "adcoef"):
        negative_sobolev_decay(su2, q=q, s=2.5, ladder=ladder)


def test_negative_sobolev_reports_psi_bands(su2):
    ladder = [0.5, 0.25, 0.125, 0.0625]
    bands = [psi_hat_coefficients(su2, r).support_band for r in ladder]
    for q in ("one", "rho2", "adcoef"):
        assert negative_sobolev_decay(su2, q=q, ladder=ladder)["bands"] \
            == bands


def _line_adcoef_masses(coeffs):
    """Oracle for the ``"adcoef"`` factor: Plancherel mass of ``q psi_r``
    at each label ``u = 0..B+1``, with ``q`` the fundamental coefficient of
    twice-weights (-1, +1) and ``psi_r`` given by its even-label central
    coefficients.

    The product's blocks sit on the second superdiagonal; each entry is a
    polar integral of a central profile line against one off-diagonal
    coefficient line, both advanced by the label recurrence, with a
    Gauss-Legendre rule exact for the polynomial degrees involved."""
    band = coeffs.size - 1
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
        if coeffs[t] != 0.0:
            act = diag.rows_active()
            psi_lines[act] += (t + 1.0) * coeffs[t] * diag.cur[act]
    # Left factor folded with the quadrature: (1/2) w sin(theta/2) Psi_{mu+1}.
    q_line = np.sin(0.5 * theta)
    off = _LineBatch(1, band + 1, theta, offset=2)
    g_rows = np.zeros((off.mus.size, theta.size))
    for i, mu in enumerate(off.mus):
        c = int(mu) + 1
        if c in diag.index:
            g_rows[i] = 0.5 * glw * q_line * psi_lines[diag.index[c]]
    masses = np.zeros(band + 2)
    while True:
        u = off.advance()
        if u > band + 1:
            break
        act = off.rows_active()
        if act.any():
            entries = np.sum(g_rows[act] * off.cur[act], axis=1)
            masses[u] = (u + 1.0) * float(np.sum(entries ** 2))
    return masses


def test_adcoef_formula_matches_line_recurrence(su2):
    for r in (0.5, 0.25, 1.0 / 64.0):
        seq = psi_hat_coefficients(su2, r, rel_tol=1e-4)
        masses = _line_adcoef_masses(seq.table.real)
        brackets = np.array([japanese_bracket(su2, u)
                             for u in range(masses.size)])
        amplitudes = _times_q("adcoef", seq)
        assert amplitudes.size == masses.size
        for s in (0.0, 0.5, 1.0):
            oracle = float(np.sum(brackets ** (-2.0 * s) * masses))
            fast = _sobolev_sq_radial(amplitudes, s)
            assert fast == pytest.approx(oracle, rel=1e-10)


def test_rho2_stencil_matches_weighted_quadrature(su2):
    # the quadrature route integrates rho^2 psi_r against the characters
    # directly and truncates its own band
    for r in default_ladder():
        values_fn, R = _psi_radial_values(su2, r)
        quad = _adaptive_band(
            lambda sv: (2.0 - 2.0 * np.cos(sv)) * values_fn(sv), R,
            max(32, int(12.0 / R)), 1e-9)
        stencil = _times_q("rho2", psi_hat_coefficients(su2, r))
        for s in (0.0, 0.5, 1.0):
            assert _sobolev_sq_radial(stencil, s) == pytest.approx(
                _sobolev_sq_radial(quad, s), rel=1e-12)


def test_cz_probe_identity_short_ladder(su2):
    ladder = [0.5, 0.25, 0.125, 0.0625]
    out = cz_probe(su2, identity_diagonals, ladder=ladder)
    assert out["m"] == 1
    assert out["epsilon"] == pytest.approx(1.0 / 3.0)
    assert out["target_slope"] == pytest.approx(1.0 / 6.0)
    assert out["passed"]
    assert out["fit"]["slope"] == pytest.approx(0.1643, abs=2e-3)
    assert len(out["bands"]) == len(ladder)


def test_cz_probe_provider_validation(su2):
    def bad_provider(t):
        return np.ones(t + 2)

    with pytest.raises(GmultError):
        cz_probe(su2, bad_provider, ladder=[0.5, 0.25, 0.125, 0.0625])


def psi_r_fixed_band(model: GroupModel, r: float,
                     band: int) -> CentralSequence:
    """Central coefficients of ``psi_r`` truncated at a fixed ``band``
    rather than at a tolerance (`psi_hat_coefficients`), with the same
    zeroing of entries below 1e-14 of the largest."""
    values_fn, R = _psi_radial_values(model, r)
    coeffs = _su2_central_coefficients(values_fn, R, band)
    coeffs[np.abs(coeffs) < 1e-14 * np.max(np.abs(coeffs), initial=0.0)] = 0.0
    return CentralSequence(model, coeffs, zero_beyond=True)


def cz_consistency(model: GroupModel, sym: MatrixSymbol, r: float,
                   band: int = 20,
                   grid: Optional[GroupGrid] = None) -> Dict[str, object]:
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
    seq = psi_r_fixed_band(model, r, band)
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


def test_cz_consistency_frozen(su2):
    riesz = riesz_field_diagonals(su2)
    out = cz_consistency(su2, _diag_symbol(su2, riesz, 24), r=0.5)
    assert out["passed"]
    assert out["lhs"] == pytest.approx(0.870667, abs=2e-4)
    assert out["rhs"] == pytest.approx(28.181184, rel=1e-3)


def test_riesz_diagonals_match_riesz_symbol(su2):
    from gmult.central import riesz_symbol
    provider = riesz_field_diagonals(su2)
    sym = riesz_symbol(su2, (0.0, 0.0, 1.0), 40)
    for t in range(41):
        block = sym.get(t)
        assert np.max(np.abs(block - np.diag(provider(t)))) <= 1e-15


def _diag_symbol(model, provider, band):
    from gmult.symbols import MatrixSymbol
    entries = {t: np.diag(provider(t)).astype(complex)
               for t in range(band + 1)}
    return MatrixSymbol(model, entries, exact_band=band)


def test_riesz_diagonals_closed_form(su2):
    from gmult.central import riesz_symbol
    provider = riesz_field_diagonals(su2)
    ref = riesz_symbol(su2, (0.0, 0.0, 1.0), 10)
    for t in (0, 1, 4, 10):
        assert np.allclose(provider(t), np.diag(ref.get(t)), atol=1e-12)
    assert np.allclose(identity_diagonals(5), np.ones(6))


# ---------------------------------------------------------------------------
# Second-difference norm: label stencil against independent routes
# ---------------------------------------------------------------------------

def _quadrature_cz_norm_sq(sym_diags, coeffs, m):
    """Oracle for `_cz_norm_sq`: synthesize the kernel, which depends only
    on the polar angle and the sum of the two azimuthal angles, by the
    label recurrence and an FFT, multiply by ``rho^{4m}`` and integrate.
    After the azimuthal integral the polar integrand is a polynomial in
    cos(theta) of degree at most band + 2m, so Gauss-Legendre with half
    that many nodes is exact."""
    band = coeffs.size - 1
    n_theta = (band + 2 * m) // 2 + 2
    x, glw = _leggauss(n_theta)
    theta = np.arccos(np.clip(x, -1.0, 1.0))
    n_v = 2 * band + 8 * m + 8
    parities = sorted({t % 2 for t in range(band + 1) if coeffs[t] != 0.0})
    spectrum = np.zeros((n_v, theta.size), dtype=complex)
    for parity in parities:
        batch = _LineBatch(parity, band, theta, offset=0)
        while True:
            t = batch.advance()
            if t > band:
                break
            if coeffs[t] == 0.0:
                continue
            act = batch.rows_active()
            mus_act = batch.mus[act]
            values = ((t + 1.0) * coeffs[t]
                      * sym_diags[t][(mus_act + t) // 2])
            spectrum[mus_act % n_v] += values[:, None] * batch.cur[act]
    kernel = np.fft.fft(spectrum, axis=0)
    v = 4.0 * math.pi * np.arange(n_v) / n_v
    half_trace = np.cos(0.5 * theta)[None, :] * np.cos(0.5 * v)[:, None]
    rho_sq = 4.0 - 4.0 * half_trace ** 2
    values = np.abs(kernel) ** 2 * rho_sq ** (2 * m)
    return float(np.sum(values @ (0.5 * glw)) / n_v)


def _psi_coeffs(model, r, band):
    return psi_r_fixed_band(model, r, band).table.real


@pytest.mark.parametrize("m", [1, 2])
def test_cz_norm_stencil_matches_quadrature(su2, m):
    rng = np.random.default_rng(11)
    cases = [(_psi_coeffs(su2, 0.25, band), band) for band in (40, 200)]
    # random coefficients on both label parities exercise every stencil arm
    cases.append((rng.standard_normal(121), 120))
    for coeffs, band in cases:
        random_diags = {t: rng.standard_normal(t + 1)
                        + 1j * rng.standard_normal(t + 1)
                        for t in range(band + 1)}
        identity = {t: identity_diagonals(t) for t in range(band + 1)}
        for diags in (identity, random_diags):
            fast = _cz_norm_sq(diags.__getitem__, coeffs, m)
            oracle = _quadrature_cz_norm_sq(diags, coeffs, m)
            assert fast == pytest.approx(oracle, rel=1e-10)


@pytest.mark.parametrize("r", [0.5, 0.25])
def test_cz_norm_stencil_matches_grid_route(su2, r):
    # cz_consistency's lhs applies the grid Laplace difference to the same
    # band-20 truncation of the dyadic piece
    coeffs = _psi_coeffs(su2, r, 20)
    for provider in (riesz_field_diagonals(su2), identity_diagonals):
        lhs = cz_consistency(su2, _diag_symbol(su2, provider, 24), r=r)["lhs"]
        assert math.sqrt(_cz_norm_sq(provider, coeffs, 1)) == pytest.approx(
            lhs, rel=1e-12)


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


def _full_square_cz_norm_sq(sym_diags, coeffs, m):
    """Oracle for `_cz_norm_sq`: the same stencil on every label and every
    column of one ``(B + 2m + 1)^2`` buffer (`_times_chi1`)."""
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


def _triangle(rng, size):
    """Random masses on the triangle ``i <= t`` of a ``size``-square."""
    return np.tril(rng.standard_normal((size, size)))


@pytest.mark.parametrize("size", [1, 2, 3, 4, 130, 131, 260])
@pytest.mark.parametrize("parity", [0, 1])
def test_packed_chi1_matches_full_square(size, parity):
    # 130 and up span more than one 64-row block on each parity
    rng = np.random.default_rng(size + 7 * parity)
    full = _triangle(rng, size)
    full[1 - parity::2] = 0.0
    packed = np.zeros(((size - parity + 1) // 2 + 2, size + 2))
    packed[1:-1, 1:-1] = full[parity::2]
    out = _times_chi1_packed(packed, parity, size)
    oracle = _times_chi1(full)
    scale = float(np.max(np.abs(oracle)))
    assert np.max(np.abs(out[1:-1, 1:-1] - oracle[1 - parity::2]),
                  initial=0.0) <= 1e-15 * scale
    # the zero border survives, and the source parity's rows stay empty
    assert not out[0].any() and not out[-1].any()
    assert not out[:, 0].any() and not out[:, -1].any()
    assert not oracle[parity::2].any()


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("size", [1, 2, 3, 150, 151])
def test_cz_norm_packed_parities_match_full_square(m, size):
    rng = np.random.default_rng(100 * m + size)
    diags = {t: rng.standard_normal(t + 1) + 1j * rng.standard_normal(t + 1)
             for t in range(size)}
    real = {t: d.real.astype(complex) for t, d in diags.items()}
    both = rng.standard_normal(size)
    even = both.copy()
    even[1::2] = 0.0
    odd = both.copy()
    odd[::2] = 0.0
    for coeffs in (both, even, odd):
        if not coeffs.any():
            continue
        for sym in (diags, real):
            fast = _cz_norm_sq(sym.__getitem__, coeffs, m)
            oracle = _full_square_cz_norm_sq(sym, coeffs, m)
            assert fast == pytest.approx(oracle, rel=1e-15, abs=0.0)


def _complex_masses_cz_norm_sq(sym_diags, coeffs, m):
    """Bitwise oracle for `_cz_norm_sq`: the same stencil on one complex
    mass array per parity, every diagonal gathered in a per-label dict
    first."""
    size = coeffs.size + 2 * m
    nonzero = np.nonzero(coeffs)[0]
    total = 0.0
    for parity in (0, 1):
        labels = nonzero[nonzero % 2 == parity]
        if labels.size == 0:
            continue
        count = (size - parity + 1) // 2
        masses = np.zeros((count + 2, size + 2), dtype=complex)
        for t in labels:
            masses[1 + t // 2, 1:t + 2] = (t + 1.0) * coeffs[t] * sym_diags[t]
        dims = _packed_dims(parity, count)
        for part in (masses.real, masses.imag):
            if part.any():
                for _ in range(m):
                    part = 4.0 * part - _times_chi1_packed(
                        _times_chi1_packed(part, parity, size),
                        1 - parity, size)
                total += float(np.sum(part ** 2 / dims[:, None]))
    return total


@pytest.mark.parametrize("m", [1, 2])
def test_cz_norm_one_plane_matches_complex_masses_bitwise(su2, m):
    # each diagonal written straight into one real plane at a time gives
    # the complex-mass norm bit for bit: purely imaginary (Riesz), real
    # (identity, a diagonal MatrixSymbol) and complex rows, on the probe's
    # even-label coefficients and on random coefficients of both parities
    rng = np.random.default_rng(29 + m)
    band = 150
    random_rows = {t: rng.standard_normal(t + 1)
                   + 1j * rng.standard_normal(t + 1) for t in range(band + 1)}
    sym = _diag_symbol(su2, lambda t: np.arange(1.0, t + 2.0) - 0.5 * t, band)
    providers = [riesz_field_diagonals(su2), identity_diagonals,
                 lambda t: np.diag(sym.get(t)), random_rows.__getitem__]
    for coeffs in (_psi_coeffs(su2, 0.25, band),
                   rng.standard_normal(band + 1)):
        for provider in providers:
            rows = {t: np.asarray(provider(t), dtype=complex)
                    for t in range(band + 1)}
            assert (_cz_norm_sq(provider, coeffs, m)
                    == _complex_masses_cz_norm_sq(rows, coeffs, m))


def test_cz_norm_checks_rows_at_zero_coefficient_labels(su2):
    # the probe's coefficients vanish at odd labels; a wrong-size row there
    # is still refused, by the stencil and by the probe
    coeffs = _psi_coeffs(su2, 0.25, 40)
    assert not coeffs[1::2].any()

    def provider(t):
        return identity_diagonals(t + (t == 3))

    with pytest.raises(GmultError, match="at label 3"):
        _cz_norm_sq(provider, coeffs, 1)
    with pytest.raises(GmultError, match="at label 3"):
        cz_probe(su2, provider)
