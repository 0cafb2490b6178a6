"""Central machinery: characters, class quadrature, lattice operators on
radial coefficient sequences, central symbol builders.

The class routes are held to an independent oracle kept here: characters
from the Chebyshev recurrence ``chi_{t+1} = 2 cos(s/2) chi_t - chi_{t-1}``
on a uniform grid over the class angle ``s`` in ``[0, 4 pi)`` with weights
``(2/N) sin^2(s/2)``."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmult.central import (CentralSequence, _sine_values, character_inner,
                           delta2, dimension_sequence, function_of_laplacian,
                           hypoellipticity_ratio, laplace_central,
                           nweiss_delta, riesz_symbol)
from gmult.groups import labels_up_to
from gmult.symbols import default_grid, laplace_difference

from conftest import op_norm


# ---------------------------------------------------------------------------
# Oracle: the character recurrence on the 4 pi class grid
# ---------------------------------------------------------------------------

def _recurrence_table(tmax, angles):
    """``(tmax+1, len(angles))`` table of characters chi_0..chi_tmax."""
    x = 2.0 * np.cos(0.5 * angles)
    out = np.empty((tmax + 1, x.size))
    out[0] = 1.0
    if tmax >= 1:
        out[1] = x
    for t in range(2, tmax + 1):
        out[t] = x * out[t - 1] - out[t - 2]
    return out


def _class_grid(total_band):
    """Nodes ``s_j = 4 pi j / N`` and weights ``(2/N) sin^2(s_j/2)``, exact
    for character products of total label sum below ``N - 4``."""
    n = 2 * total_band + 16
    s = 4.0 * math.pi * np.arange(n) / n
    return s, (2.0 / n) * np.sin(0.5 * s) ** 2


def _signed_characters(labels, angles):
    """Rows chi_t for extended labels: ``chi_{-2-t} = -chi_t``, and 0 at
    the wall ``t = -1``."""
    table = _recurrence_table(max(max(t, -2 - t) for t in labels), angles)
    return np.array([np.zeros_like(angles) if t == -1 else
                     (table[t] if t >= 0 else -table[-2 - t])
                     for t in labels])


def _oracle_route(table, factor, out_band, weighted):
    """Expand ``sum_t w_t s_t chi_t`` (``w_t = t + 1`` if weighted, else 1)
    times ``factor(s)`` back in characters through ``out_band``."""
    s, w = _class_grid(table.size - 1 + out_band + 6)
    chi = _recurrence_table(max(table.size - 1, out_band), s)
    weights = np.arange(1, table.size + 1) if weighted else 1.0
    kernel = (weights * table) @ chi[:table.size] * factor(s)
    return np.array([np.sum(w * kernel * chi[t])
                     for t in range(out_band + 1)])


def test_weyl_dimension_values():
    # d_t = t + 1 on dominant labels, 0 at the wall
    seq = dimension_sequence(7)
    for t in range(8):
        assert seq.value(t) == t + 1
    assert seq.value(-1) == 0.0


def test_character_at_identity():
    # chi_t(0) is the limit of sin((t+1) theta) / sin(theta): the theta
    # derivative of sin((t+1) theta) at 0
    for t in (0, 1, 4, 30):
        a = np.zeros(t + 1)
        a[t] = 1.0
        got = _sine_values(a, 2 * t + 6, derivative=True)[0]
        assert got == pytest.approx(t + 1, abs=1e-12)


def test_class_measure_normalized(su2):
    # integral of 1 is 1; integral of rho^2 = 3 - chi_2 is 3, read off the
    # class route of the distance-squared operator on the constant kernel
    assert character_inner(0, 0) == pytest.approx(1.0, abs=1e-13)
    out = laplace_central(CentralSequence(su2, [1.0], zero_beyond=True))
    assert out.value(0) == pytest.approx(3.0, abs=1e-12)
    assert out.value(2) == pytest.approx(-1.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("band", [0, 1, 2, 5, 20, 200])
def test_class_routes_match_the_recurrence_oracle(su2, band):
    # laplace_central is compared on the scale of the sine coefficients
    # d_t out_t the class rules compute: the oracle's own quadrature error
    # there is uniform in t (3e-14 of the largest at band 200), while
    # out_t = (d_t out_t) / d_t spreads it to 1.5e-12 at small t.  The
    # exact stencil delta2 then checks out_t itself.
    rng = np.random.default_rng(band)
    vals = rng.standard_normal(band + 1) + 1j * rng.standard_normal(band + 1)
    seq = CentralSequence(su2, vals, zero_beyond=True)
    d = np.arange(1.0, band + 4.0)
    want = _oracle_route(vals, lambda s: 2.0 - 2.0 * np.cos(s), band + 2,
                         weighted=True)
    got = laplace_central(seq).table
    assert got.shape == want.shape
    assert np.abs(d * got - want).max() <= 1e-12 * np.abs(want).max()
    stencil = delta2(seq).table
    assert np.abs(got - stencil).max() <= 1e-13 * np.abs(stencil).max()
    want = _oracle_route(vals, lambda s: 2.0 * np.cos(0.5 * s) - 2.0,
                         band + 1, weighted=False)
    got = nweiss_delta(seq).table
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_character_inner_matches_the_recurrence_oracle():
    labels = list(range(-42, 41))
    s, w = _class_grid(2 * 42 + 8)
    chi = _signed_characters(labels, s)
    want = (chi * w) @ chi.T
    got = np.array([[character_inner(ta, tb) for tb in labels]
                    for ta in labels])
    assert np.abs(got - want).max() <= 1e-12
    exact = (np.equal.outer(labels, labels).astype(float)
             - np.equal.outer(labels, [-2 - t for t in labels]))
    assert np.abs(got - exact).max() <= 1e-13


def test_character_inner_orthonormal():
    for ta in range(0, 8):
        for tb in range(0, 8):
            val = character_inner(ta, tb)
            assert val == pytest.approx(1.0 if ta == tb else 0.0, abs=1e-12)


def test_character_inner_signed_pairs():
    # chi_{-t-2} = -chi_t, so mixed pairs integrate to -1
    for t in (0, 1, 3, 6):
        assert character_inner(t, -t - 2) == pytest.approx(-1.0, abs=1e-12)
        assert character_inner(-t - 2, -t - 2) == pytest.approx(1.0,
                                                                abs=1e-12)
    assert character_inner(2, -1) == pytest.approx(0.0, abs=1e-13)


def test_central_sequence_extension():
    seq = CentralSequence(dimension_sequence(4).model,
                          {0: 1.0, 2: 0.5}, zero_beyond=True)
    assert seq.value(-4) == seq.value(2)  # even reflection through -1
    assert seq.value(6) == 0.0
    strict = CentralSequence(seq.model, {0: 1.0}, zero_beyond=False)
    with pytest.raises(KeyError):
        strict.value(2)


def _dict_read(values, zero_beyond, t):
    """Evenly extended read of a label -> value dict."""
    t = -2 - t if t < -1 else t
    if t in values:
        return values[t]
    if zero_beyond:
        return 0.0
    raise KeyError(t)


def _dict_delta2(values, zero_beyond):
    """Reference for `delta2`: the per-label dict formula with ``tau_t =
    d_t s_t`` odd-extended (0 at the wall), over the labels whose
    neighbours are known."""
    def tau(t):
        return 0.0 if t == -1 else (t + 1) * _dict_read(values, zero_beyond, t)
    dom = sorted(t for t in values if t >= 0)
    if zero_beyond:
        labels = range(max(dom, default=0) + 3)
    else:
        labels = [t for t in dom if all(
            nb in values or nb <= -1 or -2 - nb in values
            for nb in (t - 2, t + 2))]
    return {t: (2.0 * tau(t) - tau(t - 2) - tau(t + 2)) / (t + 1)
            for t in labels}


def _assert_matches_dict(seq, values, zero_beyond):
    dom = [t for t in values if t >= 0]
    assert seq.support_band == max(dom, default=0)
    for t in range(-12, seq.support_band + 6):
        try:
            want = _dict_read(values, zero_beyond, t)
        except KeyError:
            with pytest.raises(KeyError):
                seq.value(t)
            continue
        assert seq.value(t) == want


@pytest.mark.parametrize("case", ["sparse", "wall", "dense"])
def test_central_sequence_array_matches_dict_semantics(su2, case):
    # value, support_band and delta2 (exactly) as read off a label dict
    rng = np.random.default_rng(17)
    if case == "sparse":
        values = {t: complex(*rng.standard_normal(2)) for t in (0, 2, 5, 9)}
        seq, zero_beyond = CentralSequence(su2, values, zero_beyond=True), True
    elif case == "wall":
        values = {t: complex(*rng.standard_normal(2)) for t in range(-1, 8)}
        seq, zero_beyond = CentralSequence(su2, values, zero_beyond=True), True
    else:
        seq = function_of_laplacian(lambda lam2: 1.0 / (1.0 + lam2) ** 0.3, 11)
        values, zero_beyond = {t: seq.value(t) for t in range(12)}, False
    _assert_matches_dict(seq, values, zero_beyond)
    out = delta2(seq)
    want = _dict_delta2(values, zero_beyond)
    assert out.zero_beyond == zero_beyond
    _assert_matches_dict(out, want, zero_beyond)


def test_central_sequence_array_and_dict_constructors_agree(su2):
    vals = np.array([1.0, -0.5j, 0.25, 0.0, 2.0])
    dense = CentralSequence(su2, vals, zero_beyond=True)
    assert dense.support_band == 4
    assert dense.value(-1) == 0.0
    assert np.array_equal(
        dense.table, CentralSequence(su2, dict(enumerate(vals)), True).table)
    assert CentralSequence(su2, {3: 1.0}, zero_beyond=True).value(1) == 0.0
    with pytest.raises(ValueError):
        CentralSequence(su2, {0: 1.0, 2: 1.0}, zero_beyond=False)
    # too short for a strict second difference: no label has both
    # neighbours
    assert delta2(CentralSequence(su2, [1.0, 2.0])).table.size == 0


def test_delta2_matches_quadrature_route():
    rng = np.random.default_rng(3)
    vals = {t: complex(v) for t, v in enumerate(rng.standard_normal(9))}
    seq = CentralSequence(dimension_sequence(1).model, vals,
                          zero_beyond=True)
    stencil = delta2(seq)
    quad = laplace_central(seq)
    for t in range(seq.support_band + 3):
        assert stencil.value(t) == pytest.approx(quad.value(t), abs=1e-11)


def test_delta2_matches_grid_laplace():
    rng = np.random.default_rng(4)
    vals = {t: complex(v) for t, v in enumerate(rng.standard_normal(7))}
    seq = CentralSequence(dimension_sequence(1).model, vals,
                          zero_beyond=True)
    sym = seq.as_symbol(8)
    grid_out = laplace_difference(sym, default_grid(seq.model, 12))
    stencil = delta2(seq)
    for t in range(8):
        block = grid_out.get(t)
        assert np.allclose(block, stencil.value(t) * np.eye(t + 1),
                           atol=1e-10)


def test_dimension_sequence_is_harmonic():
    # the signed dimension sequence is annihilated by the one-step
    # lattice difference
    out = nweiss_delta(dimension_sequence(24))
    for t in range(23):
        assert abs(out.value(t)) < 1e-12


def test_nweiss_delta_explicit():
    # on a delta sequence the operator is the centered second difference
    seq = CentralSequence(dimension_sequence(1).model, {4: 1.0},
                          zero_beyond=True)
    out = nweiss_delta(seq)
    assert out.value(4) == pytest.approx(-2.0, abs=1e-12)
    assert out.value(3) == pytest.approx(1.0, abs=1e-12)
    assert out.value(5) == pytest.approx(1.0, abs=1e-12)
    assert abs(out.value(2)) < 1e-12


def test_hypoellipticity_report():
    rep = hypoellipticity_ratio(1, 40)
    assert rep["max_ratio"] <= 2.0 + 1e-12
    assert rep["growth"] <= 1.25
    assert rep["poly_bound_constant"] >= 1.0
    with pytest.raises(ValueError):
        hypoellipticity_ratio(0, 40)


def test_riesz_symbol_norms(su2):
    sym = riesz_symbol(su2, (0.0, 0.0, 1.0), 12)
    assert np.allclose(sym.get(0), 0.0)
    for t in labels_up_to(su2, 12):
        assert op_norm(sym.get(t)) <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        riesz_symbol(su2, (0.0, 0.0, 2.0), 6)


def test_riesz_diagonal_closed_form(su2):
    sym = riesz_symbol(su2, (0.0, 0.0, 1.0), 8)
    for t in (1, 2, 5, 8):
        ell = t / 2.0
        mus = np.arange(-t, t + 1, 2)
        want = -1j * (mus / 2.0) / math.sqrt(ell * (ell + 1.0))
        assert np.allclose(np.diag(sym.get(t)), want, atol=1e-12)


def test_function_of_laplacian_eigenvalues(su2):
    seq = function_of_laplacian(lambda lam2: 1.0 / (1.0 + lam2), 10)
    for t in (0, 1, 4, 10):
        lam2 = (t / 2.0) * (t / 2.0 + 1.0)
        assert seq.value(t) == pytest.approx(1.0 / (1.0 + lam2), rel=1e-14)
    ident = function_of_laplacian(lambda lam2: 1.0, 6).as_symbol(6)
    for t in range(7):
        assert np.allclose(ident.get(t), np.eye(t + 1), atol=1e-14)


@settings(max_examples=15)
@given(t=st.integers(min_value=0, max_value=30))
def test_character_l2_normalized_property(t):
    assert character_inner(t, t) == pytest.approx(1.0, abs=1e-11)
