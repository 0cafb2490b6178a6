"""Scale-family machinery: bump profiles, normalization and L2 scaling,
spectral coefficients of the dyadic shell, decay probes."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmult.errors import BandOverflowError, GmultError, UnderResolvedError
from gmult.groups import model_from_name, su2_exp_point
from gmult.mollifier import (_cz_norm_sq, _leggauss, _LineBatch,
                             build_phi_r, build_psi_r, bump_profile,
                             cz_consistency, cz_probe, default_ladder,
                             fit_loglog, identity_diagonals, l1_modulus,
                             mollifier_family, mollifier_l2_norm,
                             mollifier_normalizer, mollifier_scaling_report,
                             mollifier_tail, negative_sobolev_decay,
                             psi_hat_coefficients, required_mollifier_band,
                             riesz_field_diagonals, smallest_resolved_scale)
from gmult.symbols import default_grid
from gmult.transform import fourier_forward


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
# Families, normalization, tails
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


def test_tail_semantics(su2):
    r = 0.5
    R = mollifier_family(su2, r).support_radius
    assert mollifier_tail(su2, r, 0.0) == pytest.approx(1.0, abs=1e-10)
    assert mollifier_tail(su2, r, R) == 0.0  # exactly zero at the support
    assert mollifier_tail(su2, r, 2.0 * R) == 0.0
    mid = mollifier_tail(su2, r, 0.6 * R)
    assert 0.0 < mid < 1.0
    lo = mollifier_tail(su2, r, 0.3 * R)
    assert lo >= mid


def test_l1_modulus_scaling(su2, torus3):
    # the translate modulus scales like rho(h) / R with an r-independent
    # profile constant (~1.9 radially on the 3-sphere model, ~12 for the
    # one-axis shift against the radial profile on T^3)
    for r in (0.5, 1.0):
        R = mollifier_family(su2, r).support_radius
        for step in (0.01, 0.02):
            h = su2_exp_point((0.0, 0.0, 1.0), step)
            rho_h = 2.0 * math.sin(step / 2.0)
            ratio = l1_modulus(su2, r, h) / (rho_h / R)
            assert 1.5 <= ratio <= 2.5
    ratios = []
    for r_t in (0.008, 0.05):
        R_t = mollifier_family(torus3, r_t).support_radius
        step = 0.02 * R_t
        rho_h = 2.0 * math.sin(step / 2.0)
        ratios.append(l1_modulus(torus3, r_t, (step, 0.0, 0.0))
                      / (rho_h / R_t))
    assert all(10.0 <= v <= 14.0 for v in ratios)
    assert ratios[0] == pytest.approx(ratios[1], rel=0.05)
    assert l1_modulus(su2, 1.0, (0.0, 0.0, 0.0)) == 0.0


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


def test_fit_loglog_short_ladder_rejected():
    with pytest.raises(GmultError):
        fit_loglog([0.5, 0.25, 0.125], [1.0, 2.0, 4.0])


def test_default_ladder():
    assert default_ladder() == [2.0 ** -k for k in range(4, 10)]
    assert default_ladder(2, 4) == [0.25, 0.125, 0.0625]


# ---------------------------------------------------------------------------
# Grid realizations and resolution guards
# ---------------------------------------------------------------------------

def test_build_phi_r_normalized(su2, torus3):
    for model, band, r in ((su2, 20, 2.0), (torus3, 25, 1.0)):
        grid = default_grid(model, band)
        phi, c_r = build_phi_r(model, grid, r)
        total = grid.integrate(phi.samples)
        assert total == pytest.approx(1.0, rel=1e-12)
        assert c_r == pytest.approx(mollifier_normalizer(model, r), rel=5e-3)


def test_build_phi_r_under_resolved(su2):
    grid = default_grid(su2, 12)
    with pytest.raises(UnderResolvedError) as exc:
        build_phi_r(su2, grid, 0.01)
    msg = str(exc.value)
    assert "band" in msg


def test_resolution_helpers(su2, torus3):
    for model in (su2, torus3):
        band = required_mollifier_band(model, 0.125)
        floor_r = smallest_resolved_scale(model, band)
        assert floor_r <= 0.125
        # shrinking the band pushes the resolvable floor up
        assert smallest_resolved_scale(model, max(4, band // 2)) > floor_r


def test_build_psi_r_is_dyadic_difference(su2):
    grid = default_grid(su2, 24)
    psi = build_psi_r(su2, grid, 2.0)
    phi_r, _ = build_phi_r(su2, grid, 2.0)
    phi_half, _ = build_phi_r(su2, grid, 1.0)
    assert np.allclose(psi.samples, phi_r.samples - phi_half.samples,
                       atol=1e-12)
    assert abs(grid.integrate(psi.samples)) < 1e-12


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


def test_cz_probe_dense_symbol_band_guard(su2):
    from gmult.central import riesz_symbol
    small = riesz_symbol(su2, (0.0, 0.0, 1.0), 12)
    with pytest.raises(BandOverflowError):
        cz_probe(su2, small, ladder=[0.5, 0.25, 0.125, 0.0625])


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
    seq = psi_hat_coefficients(model, r, band=band)
    return np.array([float(np.real(seq.value(t))) for t in range(band + 1)])


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
            fast = _cz_norm_sq(diags, coeffs, m)
            oracle = _quadrature_cz_norm_sq(diags, coeffs, m)
            assert fast == pytest.approx(oracle, rel=1e-10)


@pytest.mark.parametrize("r", [0.5, 0.25])
def test_cz_norm_stencil_matches_grid_route(su2, r):
    # cz_consistency's lhs applies the grid Laplace difference to the same
    # band-20 truncation of the dyadic piece
    coeffs = _psi_coeffs(su2, r, 20)
    for provider in (riesz_field_diagonals(su2), identity_diagonals):
        lhs = cz_consistency(su2, _diag_symbol(su2, provider, 24), r=r)["lhs"]
        diags = {t: provider(t) for t in range(21)}
        assert math.sqrt(_cz_norm_sq(diags, coeffs, 1)) == pytest.approx(
            lhs, rel=1e-12)
