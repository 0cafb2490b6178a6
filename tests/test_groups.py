"""Group-model basics: labels, dimensions, spectral weights, Wigner matrices."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.polynomial.legendre import leggauss

from gmult import groups
from gmult.groups import (_log_factorials, angular_momentum, casimir_lambda,
                          irrep_dimension, japanese_bracket, jx_eigenbasis,
                          label_band, labels_up_to, model_from_name,
                          torus_model, validate_label, wigner_little_d)

from conftest import su2_exp, wigner_matrix


def test_model_names_roundtrip():
    for name in ("su2", "torus-1", "torus-3", "torus-4"):
        assert model_from_name(name).name == name
    with pytest.raises(ValueError):
        model_from_name("so3")


def test_difference_order_constant():
    # smallest even order strictly above dim/2
    assert model_from_name("su2").kappa == 2
    assert torus_model(1).kappa == 2
    assert torus_model(3).kappa == 2
    assert torus_model(4).kappa == 4
    assert torus_model(5).kappa == 4


def test_first_shell_labels(su2, torus3):
    assert su2.delta0 == (2,)
    assert set(torus3.delta0) == {(1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                  (0, -1, 0), (0, 0, 1), (0, 0, -1)}


def test_su2_dimensions_and_bands(su2):
    for t in range(0, 12):
        assert irrep_dimension(su2, t) == t + 1
        assert label_band(su2, t) == t


def test_torus_dimensions_and_bands(torus3):
    assert irrep_dimension(torus3, (0, 0, 0)) == 1
    assert label_band(torus3, (3, -5, 1)) == 5


def test_label_count_su2(su2):
    assert list(labels_up_to(su2, 6)) == [0, 1, 2, 3, 4, 5, 6]


def test_label_count_torus(torus3):
    labels = list(labels_up_to(torus3, 2))
    assert len(labels) == 5 ** 3
    assert len(set(labels)) == len(labels)


def test_casimir_values(su2, torus3):
    # sqrt(l(l+1)) at twice-spin 2l; 2*pi*|k| on the torus
    assert casimir_lambda(su2, 0) == 0.0
    assert casimir_lambda(su2, 2) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert casimir_lambda(su2, 5) == pytest.approx(
        math.sqrt(2.5 * 3.5), rel=1e-14)
    assert casimir_lambda(torus3, (3, 4, 0)) == pytest.approx(
        2 * math.pi * 5.0, rel=1e-14)


@given(t=st.integers(min_value=0, max_value=200))
def test_bracket_floor_su2(t):
    su2 = model_from_name("su2")
    val = japanese_bracket(su2, t)
    assert val >= 1.0
    assert val == max(1.0, casimir_lambda(su2, t))


@given(k=st.tuples(*[st.integers(min_value=-20, max_value=20)] * 3))
def test_bracket_floor_torus(k):
    torus3 = model_from_name("torus-3")
    assert japanese_bracket(torus3, k) == max(1.0, casimir_lambda(torus3, k))


def test_validate_label_rejects(su2, torus3):
    with pytest.raises(Exception):
        validate_label(su2, -1)
    with pytest.raises(Exception):
        validate_label(torus3, (1, 2))


def _dense_little_d(twice_spin, theta):
    """The explicit Wigner sum run over the full ``d x d`` block at every
    ``k``, with masks (zero terms included), each term scattered over
    theta: the oracle for the coefficient matrix and theta basis of
    :func:`wigner_little_d`."""
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    T = int(twice_spin)
    d = T + 1
    half = th / 2.0
    c, s = np.cos(half), np.sin(half)
    powers = np.arange(T + 1)
    cp = c[:, None] ** powers[None, :]
    sp = s[:, None] ** powers[None, :]
    lf = _log_factorials(T)
    mi, ni = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    pref = 0.5 * (lf[mi] + lf[T - mi] + lf[ni] + lf[T - ni])
    out = np.zeros((th.size, d, d))
    for k in range(T + 1):
        valid = (ni >= k) & (mi - ni + k >= 0) & (T - mi >= k)
        if not valid.any():
            continue
        logden = np.where(valid, lf[np.clip(ni - k, 0, T)] + lf[k]
                          + lf[np.clip(mi - ni + k, 0, T)]
                          + lf[np.clip(T - mi - k, 0, T)], 0.0)
        sign = np.where((mi - ni + k) % 2 == 0, 1.0, -1.0)
        coef = np.where(valid, sign * np.exp(pref - logden), 0.0)
        cospow = np.clip(T + ni - mi - 2 * k, 0, T)
        sinpow = np.clip(mi - ni + 2 * k, 0, T)
        out += coef[None, :, :] * cp[:, cospow] * sp[:, sinpow]
    if np.isscalar(theta) or np.asarray(theta).ndim == 0:
        return out[0]
    return out


def _within_dense_rounding(t, theta):
    """Whether :func:`wigner_little_d` at ``t`` stays within 5% of the dense
    table's orthogonality defect (the largest Frobenius norm of
    ``d d^T - I`` over the nodes), plus 1e-14, of the dense sum.  Both
    evaluate the explicit sum's coefficients; they differ only in how the
    theta terms are multiplied and added, and the sum's own cancellation
    sets the defect."""
    got, want = wigner_little_d(t, theta), _dense_little_d(t, theta)
    gram = want @ np.swapaxes(want, -1, -2) - np.eye(t + 1)
    defect = np.linalg.norm(gram, axis=(-2, -1)).max()
    return np.abs(got - want).max() <= 0.05 * defect + 1e-14


def _grid_nodes(t):
    """The Gauss-Legendre theta nodes of every grid of bands 1..30 that
    tabulates twice_spin ``t`` (a grid of band B reads twice_spin 0..2B on
    its B + 1 nodes); both sums are elementwise in theta, so they are
    evaluated at once."""
    return np.concatenate([np.arccos(leggauss(b + 1)[0])
                           for b in range(max(1, (t + 1) // 2), 31)])


def test_little_d_matches_dense_sum_within_its_rounding():
    for t in range(61):
        assert _within_dense_rounding(t, _grid_nodes(t)), t
        assert _within_dense_rounding(t, 0.7), t


def test_dense_sum_oracle_sees_one_coefficient_off(monkeypatch):
    # the largest coefficient at t = 40, moved by 1e-12 of itself, lands
    # far outside the sums' rounding
    real = groups._wigner_coefficients

    def perturbed(twice_spin):
        coef = real(twice_spin)
        coef.flat[np.abs(coef).argmax()] *= 1.0 + 1e-12
        return coef

    theta = _grid_nodes(40)
    assert _within_dense_rounding(40, theta)
    monkeypatch.setattr(groups, "_wigner_coefficients", perturbed)
    assert not _within_dense_rounding(40, theta)


def test_coefficients_are_the_per_k_terms_bitwise():
    # the chunked triangle walk against one masked pass over the block per
    # k, with the same expressions: the coefficients stay bit for bit
    for T in list(range(61)) + [128]:
        d = T + 1
        lf = _log_factorials(T)
        mi, ni = np.divmod(np.arange(d * d), d)
        pref = 0.5 * (lf[mi] + lf[T - mi] + lf[ni] + lf[T - ni])
        want = np.zeros((d, d * d))
        for k in range(T + 1):
            at = np.flatnonzero((ni >= k) & (mi - ni + k >= 0)
                                & (T - mi >= k))
            m, n = mi[at], ni[at]
            logden = lf[n - k] + lf[k] + lf[m - n + k] + lf[T - m - k]
            sign = np.where((m - n + k) % 2 == 0, 1.0, -1.0)
            want[m - n + 2 * k, at] = sign * np.exp(pref[at] - logden)
        assert np.array_equal(groups._wigner_coefficients(T), want), T


@pytest.mark.parametrize("t", [0, 1, 2, 7, 40, 255])
def test_jx_eigenbasis_diagonalizes_jx(t):
    # orthogonal columns at the eigenvalues k - l, ascending
    V = jx_eigenbasis(t)
    jx = angular_momentum((1.0, 0.0, 0.0), t).real
    k = np.arange(t + 1) - t / 2.0
    assert np.abs(V.T @ V - np.eye(t + 1)).max() <= 1e-13
    assert np.abs(jx @ V - V * k).max() <= 1e-14 * (t + 1)


@pytest.mark.parametrize("t", [0, 1, 2, 3, 6, 11])
def test_jx_eigenbasis_gives_little_d(t):
    # d_mn(theta) = e^{-i pi (m - n)/2} sum_k V_mk V_nk e^{-i theta (k - l)}
    # against the explicit sum, where that sum is good to ~1e-14
    theta = np.array([0.0, 0.3, 1.7, 2.9, math.pi])
    V = jx_eigenbasis(t)
    m = np.arange(t + 1)
    phase = np.exp(-0.5j * math.pi * (m[:, None] - m))
    modes = np.exp(-1j * np.outer(theta, m - t / 2.0))
    d = phase * np.einsum("mk,nk,ak->amn", V, V, modes)
    assert np.abs(d - wigner_little_d(t, theta)).max() <= 1e-13


def test_little_d_orthogonal():
    for t in (1, 2, 5):
        d = wigner_little_d(t, 0.7)
        assert np.allclose(d @ d.T, np.eye(t + 1), atol=1e-12)
    assert np.allclose(wigner_little_d(3, 0.0), np.eye(4), atol=1e-14)


def test_little_d_known_entries():
    # twice-spin 1, rows/cols ascending in m: the half-angle rotation block
    theta = 0.9
    d1 = wigner_little_d(1, theta)
    expected = np.array([[math.cos(theta / 2), math.sin(theta / 2)],
                         [-math.sin(theta / 2), math.cos(theta / 2)]])
    assert np.allclose(d1, expected, atol=1e-14)
    # twice-spin 2 middle entry is cos(theta)
    d2 = wigner_little_d(2, theta)
    assert d2[1, 1] == pytest.approx(math.cos(theta), abs=1e-14)


def test_wigner_matrix_unitary():
    point = (0.4, 1.1, 2.3)
    for t in (1, 2, 4):
        D = wigner_matrix(t, point)
        assert np.allclose(D @ D.conj().T, np.eye(t + 1), atol=1e-12)
    # the two-dimensional representation carries the defining trace
    # 2 cos(theta/2) cos((phi + psi)/2)
    phi, theta, psi = point
    D1 = wigner_matrix(1, point)
    assert np.trace(D1) == pytest.approx(
        2.0 * math.cos(theta / 2) * math.cos((phi + psi) / 2), abs=1e-12)


def test_su2_exp_identity():
    assert np.allclose(su2_exp((0.0, 0.0, 1.0), 0.0), np.eye(2), atol=1e-14)
    g = su2_exp((0.3, -0.2, 0.5))
    assert np.allclose(g @ g.conj().T, np.eye(2), atol=1e-14)
    assert abs(np.linalg.det(g) - 1.0) < 1e-14
