"""Frame-field resolvents: exceptional shifts, inverse symbols, the
difference recursion, and the order-0/type-0 verdict."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmult.errors import ExceptionalValueError, GmultError
from gmult.groups import labels_up_to, model_from_name
from gmult.symbols import identity_symbol, op_norm, symbol_add, symbol_product
from gmult.vfield import (build_field, exceptional_set, field_difference_table,
                          invert_vf_symbol, recursion_residual,
                          rotated_symbol, verify_s00)


@pytest.fixture(scope="module")
def d3_field():
    return build_field(model_from_name("su2"), (0.0, 0.0, 1.0), 20)


def test_exceptional_set_lattice(d3_field):
    # the resolvent fails exactly on i/2 times the integers (unit field)
    pts = exceptional_set(d3_field, bound=2.0)
    expected = {0.5j * q for q in range(-4, 5)}
    assert {complex(round(z.real, 12), round(z.imag, 12)) for z in pts} \
        == {complex(z) for z in expected}


def test_exceptional_set_scales_with_field(su2):
    spec = build_field(su2, (0.0, 0.0, 2.0), 8)
    pts = exceptional_set(spec, bound=2.0)
    assert {complex(round(z.real, 12), round(z.imag, 12)) for z in pts} \
        == {1.0j * q for q in range(-2, 3)}


def test_invert_rejects_exceptional(d3_field):
    for c in (0.0, 0.5j, -1.5j, 2.0j):
        with pytest.raises(ExceptionalValueError):
            invert_vf_symbol(d3_field, c, 8)


def test_invert_accepts_near_lattice_real_shift(d3_field):
    # shifts with a real part are never exceptional
    inv = invert_vf_symbol(d3_field, 0.01, 8)
    assert op_norm(inv.get(0)) == pytest.approx(100.0, rel=1e-9)


def test_inverse_is_a_right_inverse(su2, d3_field):
    c = 1.0 + 0.0j
    inv = invert_vf_symbol(d3_field, c, 10)
    shifted = symbol_add(d3_field.symbol.restrict(10),
                         identity_symbol(su2, 10), beta=c)
    prod = symbol_product(shifted, inv)
    for t in labels_up_to(su2, 10):
        assert np.allclose(prod.get(t), np.eye(t + 1), atol=1e-11)


def test_inverse_norm_bound(d3_field):
    inv = invert_vf_symbol(d3_field, 1.0, 16)
    # |(i mu/2 + 1)^-1| <= 1 with equality at mu = 0
    norms = [op_norm(inv.get(t)) for t in range(17)]
    assert max(norms) == pytest.approx(1.0, abs=1e-12)


def test_invert_band_capped_by_field(d3_field):
    with pytest.raises(GmultError):
        invert_vf_symbol(d3_field, 1.0, d3_field.band + 2)


def test_recursion_residuals(d3_field):
    for j in (0, 1):
        out = recursion_residual(d3_field, 1.0, j, 12)
        assert out["residual"] < 1e-9
        assert out["offdiagonal"] < 1e-9
    taus = [recursion_residual(d3_field, 1.0, j, 8)["tau"] for j in (0, 1)]
    assert taus[0] == pytest.approx(0.5j, abs=1e-9)
    assert taus[1] == pytest.approx(-0.5j, abs=1e-9)


def test_recursion_rejects_bad_block(d3_field):
    with pytest.raises(ValueError):
        recursion_residual(d3_field, 1.0, 2, 8)


def test_s00_verdict(d3_field):
    rep = verify_s00(d3_field, 1.0, 16)
    assert rep.passed
    consts = {c.name: c.constant for c in rep.conditions}
    assert consts["order-0"] == pytest.approx(1.0, abs=1e-9)
    assert consts["order-1"] == pytest.approx(0.8, abs=1e-6)
    assert consts["order-2"] == pytest.approx(1.0, abs=1e-6)
    assert all(c.growth < 1.25 for c in rep.conditions)


def test_s00_needs_field_margin(d3_field):
    with pytest.raises(GmultError):
        verify_s00(d3_field, 1.0, d3_field.band)


def test_rotated_field_matches_axis_field(su2):
    # a rotated unit field has the same eigenvalue lattice and the
    # rotated symbol of its inverse is diagonal in the rotated frame
    spec = build_field(su2, (0.6, 0.0, 0.8), 10)
    pts = exceptional_set(spec, bound=1.0)
    assert {complex(round(z.real, 12), round(z.imag, 12)) for z in pts} \
        == {0.5j * q for q in range(-2, 3)}
    inv = invert_vf_symbol(spec, 1.0, 6)
    rot = rotated_symbol(spec, inv)
    for t in labels_up_to(su2, 6):
        mat = rot.get(t)
        off = mat - np.diag(np.diag(mat))
        assert np.max(np.abs(off)) < 1e-10


def test_rotated_inverse_same_spectrum(su2, d3_field):
    spec = build_field(su2, (0.6, 0.0, 0.8), 10)
    inv_rot = invert_vf_symbol(spec, 1.0, 8)
    inv_axis = invert_vf_symbol(d3_field, 1.0, 8)
    for t in labels_up_to(su2, 8):
        a = np.sort(np.linalg.svd(inv_rot.get(t), compute_uv=False))
        b = np.sort(np.linalg.svd(inv_axis.get(t), compute_uv=False))
        assert np.allclose(a, b, atol=1e-10)


def test_difference_table_matches_stored(su2):
    # re-measuring the 2x2 difference table by quadrature reproduces the
    # closed form diag(i |a| / 2, -i |a| / 2): a non-axis, a non-unit and
    # the axis field
    for coeffs in ((0.6, 0.0, 0.8), (0.0, 0.0, 2.0), (0.0, 0.0, 1.0)):
        spec = build_field(su2, coeffs, 8)
        half = 0.5 * np.linalg.norm(coeffs)
        assert np.array_equal(spec.tau, np.diag([1j * half, -1j * half]))
        table = field_difference_table(spec)
        assert table.shape == (2, 2)
        assert np.allclose(table, spec.tau, atol=1e-10)


@settings(max_examples=10)
@given(q=st.integers(min_value=-6, max_value=6),
       eps=st.floats(min_value=1e-5, max_value=0.2))
def test_near_exceptional_norm_blows_up(q, eps):
    su2 = model_from_name("su2")
    spec = build_field(su2, (0.0, 0.0, 1.0), 10)
    c = 1j * (0.5 * q + eps)
    inv = invert_vf_symbol(spec, c, max(abs(q) + 2, 4))
    sup = max(op_norm(inv.get(t)) for t in range(max(abs(q) + 2, 4)))
    assert sup >= 0.99 / eps
