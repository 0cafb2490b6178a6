"""Central machinery: characters, class quadrature, lattice operators on
radial coefficient sequences, central symbol builders."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmult.central import (CentralSequence, character_inner,
                           character_table, class_grid, class_rho_squared,
                           delta2, dimension_sequence, function_of_laplacian,
                           hypoellipticity_ratio, laplace_central,
                           nweiss_delta, riesz_symbol, weyl_character,
                           weyl_dimension)
from gmult.groups import labels_up_to
from gmult.symbols import default_grid, laplace_difference

from conftest import op_norm


def test_weyl_dimension_values():
    for t in range(8):
        assert weyl_dimension(t) == t + 1
    # signed extension: reflection across the wall flips the sign
    assert weyl_dimension(-1) == 0
    assert weyl_dimension(-2) == -1
    assert weyl_dimension(-5) == -4


def test_character_at_identity():
    angles = np.array([0.0, 1.3])
    for t in (0, 1, 4):
        chi = weyl_character(t, angles)
        assert chi[0] == pytest.approx(t + 1, abs=1e-12)


def test_character_signed_reflection():
    angles = np.linspace(0.1, 6.0, 7)
    for t in (0, 2, 5):
        plus = weyl_character(t, angles)
        minus = weyl_character(-t - 2, angles)
        assert np.allclose(minus, -plus, atol=1e-12)
    assert np.allclose(weyl_character(-1, angles), 0.0, atol=1e-14)


def test_class_measure_normalized():
    grid = class_grid(12)
    assert grid.integrate(np.ones(grid.size)) == pytest.approx(1.0,
                                                               abs=1e-13)
    assert grid.integrate(class_rho_squared(grid.angles)) == pytest.approx(
        3.0, abs=1e-12)


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


def test_character_table_shape():
    angles = np.linspace(0, 2 * math.pi, 9)
    table = character_table(5, angles)
    assert table.shape == (6, 9)
    assert np.allclose(table[0], 1.0)


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
    grid = class_grid(2 * t + 4)
    chi = weyl_character(t, grid.angles)
    assert grid.integrate(chi * np.conj(chi)) == pytest.approx(1.0,
                                                               abs=1e-11)
