"""Frame-field resolvents: exceptional shifts, inverse symbols, the
difference recursion, and the order-0/type-0 verdict."""
import math
from typing import List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmult.errors import ExceptionalValueError, GmultError
from gmult.groups import (GroupModel, angular_momentum, labels_up_to,
                          model_from_name)
from gmult.symbols import (MatrixSymbol, identity_symbol, symbol_add,
                           symbol_product, vector_field_symbol)
from gmult.vfield import (_SPECTRAL_MARGIN, VectorFieldSpec,
                          _nearest_eigenvalue, _rotated_differences,
                          _spin_powers, build_field, exceptional_set,
                          invert_vf_symbol, recursion_residual,
                          recursion_residuals, verify_s00)

from conftest import op_norm


# ---------------------------------------------------------------------------
# Reference code: eigenbasis rotation and the quadrature re-measurement of
# the field's difference table
# ---------------------------------------------------------------------------

def eigenbasis(spec: VectorFieldSpec, t: int) -> np.ndarray:
    """``eigh`` of the Hermitian block ``i sigma_t = a . J``, columns in the
    order of ``spec.eigenvalues(t)``."""
    return np.linalg.eigh(angular_momentum(spec.coeffs, t))[1][:, ::-1]


def rotated_symbol(spec: VectorFieldSpec, sym: MatrixSymbol) -> MatrixSymbol:
    """Conjugate each block into the field's eigenbases."""
    entries = {}
    for t, mat in sym.entries.items():
        V = eigenbasis(spec, t)
        entries[t] = V.conj().T @ mat @ V
    return MatrixSymbol(spec.model, entries, exact_band=sym.exact_band)


def _measure_tau(model: GroupModel, sym: MatrixSymbol, V1: np.ndarray,
                 labels: Optional[List[int]] = None) -> np.ndarray:
    """Measure the constants ``tau_ij``: apply each rotated fundamental
    difference to the (band-restricted) field symbol and verify every block
    is that constant times the identity."""
    small = sym.restrict(min(sym.support_band, 5))
    if labels is None:
        labels = list(range(min(4, small.support_band - 1) + 1))
    out = np.zeros((2, 2), dtype=complex)
    diffs = _rotated_differences(model, small, V1)
    for i in range(2):
        for j in range(2):
            diff = diffs[i, j]
            consts = []
            for t in labels:
                mat = diff.get(t)
                s = complex(np.trace(mat)) / (t + 1)
                if np.abs(mat - s * np.eye(t + 1)).max() > 1e-7:
                    raise GmultError(
                        f"difference of the field symbol is not scalar at "
                        f"label {t} (entry {i}{j})")
                consts.append(s)
            spread = np.abs(np.diff(np.array(consts))).max() if len(consts) > 1 else 0.0
            if spread > 1e-7:
                raise GmultError(f"difference constant varies across labels "
                                 f"(entry {i}{j})")
            out[i, j] = consts[0]
    return out


def field_difference_table(spec: VectorFieldSpec) -> np.ndarray:
    """Quadrature re-measurement of the ``tau`` table from the stored field."""
    return _measure_tau(spec.model, vector_field_symbol(
        spec.model, spec.coeffs, spec.band), spec.basis)


def scan_nearest_eigenvalue(spec: VectorFieldSpec, c: complex,
                            band: int) -> Tuple[float, int, complex]:
    """(distance, label, eigenvalue) of the spectral point closest to -c,
    by scanning every block eigenvalue ``-i |a| m`` through ``band``."""
    best = (math.inf, -1, 0j)
    A = spec.field_norm
    for t in range(band + 1):
        for twice_m in range(-t, t + 1, 2):
            ev = -0.5j * A * twice_m
            dist = abs(ev + c)
            if dist < best[0]:
                best = (dist, t, ev)
    return best


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
    shifted = symbol_add(vector_field_symbol(su2, d3_field.coeffs, 10),
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


def test_nearest_eigenvalue_matches_scan(su2):
    # the closed form against the scan over random field sizes, bands, and
    # shifts on, near and off the lattice: the refusal decision agrees
    # everywhere, the label and eigenvalue wherever the nearest lattice
    # point is unique by more than rounding (not at half-way ties)
    rng = np.random.default_rng(15)
    for _ in range(2000):
        amp = 10.0 ** rng.uniform(-3.0, 3.0)
        spec = build_field(su2, (0.0, 0.0, amp), 0)
        band = int(rng.integers(0, 31))
        q = int(rng.integers(-band - 3, band + 4))
        offset = rng.choice([0.0, 1e-10, -3e-9, rng.uniform(-0.5, 0.5)])
        re = rng.choice([0.0, 1e-9, rng.uniform(-2.0, 2.0)])
        x = q + offset
        c = complex(re, 0.5 * amp * x)
        got, want = _nearest_eigenvalue(spec, c, band), \
            scan_nearest_eigenvalue(spec, c, band)
        assert (got[0] < _SPECTRAL_MARGIN) == (want[0] < _SPECTRAL_MARGIN)
        assert got[0] == pytest.approx(want[0], rel=1e-12, abs=1e-300)
        if abs(abs(x - math.floor(x)) - 0.5) > 1e-9 or abs(x) > band:
            assert got[1:] == want[1:]


def test_exceptional_set_stops_at_stored_labels(su2):
    # a tiny field puts millions of lattice points in the disk, but only
    # the 2 * 8 + 1 shifts that a stored block reaches are exceptional
    spec = build_field(su2, (1e-6, 0.0, 0.0), 8)
    pts = exceptional_set(spec, bound=2.0)
    assert len(pts) == 17
    assert max(abs(z) for z in pts) == pytest.approx(8 * 0.5e-6)


@pytest.mark.parametrize("coeffs", [(0.0, 0.0, 1.0), (0.0, 0.0, 2.0),
                                    (0.6, 0.0, 0.8), (1e-6, 0.0, 0.0)])
def test_invert_refuses_every_exceptional_point(su2, coeffs):
    spec = build_field(su2, coeffs, 6)
    pts = exceptional_set(spec, bound=4.0)
    assert pts
    for z in pts:
        with pytest.raises(ExceptionalValueError):
            invert_vf_symbol(spec, z, spec.band)


def test_build_field_margin_scales_with_the_field(su2):
    # a field of norm 1e150 builds and inverts to finite blocks
    spec = build_field(su2, (1e150, 0.0, 0.0), 8)
    inv = invert_vf_symbol(spec, 1.0, 8)
    assert np.all(np.isfinite(inv.norms(8)))


#: An axis direction, and an oblique one with the largest rounding seen in
#: the spin powers.
DIRECTIONS = [np.array(d) / np.linalg.norm(d) for d in
              ((1.0, 0.0, 0.0), (0.04, 0.94, -0.34))]


@pytest.mark.parametrize("amp", [1e-11, 1.0, 1e3, 1e150])
def test_inverse_matches_the_eigenbasis_oracle(su2, amp):
    # the blocks through label 120 (every fifth read) against eigh's
    # eigenbasis with the exact eigenvalues; shifts far from the spectrum,
    # and (where the margin allows) 1e-6 |a| off the lattice point
    # i |a| 3 / 2, where a solve of sigma_t + c from its entries loses the
    # 1/(c - lambda) part
    for direction in DIRECTIONS:
        spec = build_field(su2, amp * direction, 120)
        shifts = [1.0, 0.3 - 0.7j] + ([1e-6 * amp + 1.5j * amp]
                                      if amp >= 1.0 else [])
        bases = {t: eigenbasis(spec, t) for t in range(0, 121, 5)}
        for c in shifts:
            inv = invert_vf_symbol(spec, c, 120)
            for t, V in bases.items():
                want = (V / (spec.eigenvalues(t) + c)) @ V.conj().T
                err = np.abs(inv.entries[t] - want).max()
                assert err <= 1e-13 * np.abs(want).max(), (direction, c, t)


def test_spin_powers_diagonalize_every_block(su2):
    # the powers of the fundamental eigenbasis stay unitary and diagonalize
    # the blocks to their exact eigenvalues through label 200, relative to
    # the block's spectral radius (every fifth label read)
    for coeffs in DIRECTIONS + [np.array((0.36, 0.48, 0.8))]:
        spec = build_field(su2, coeffs, 1)
        for t, U in enumerate(_spin_powers(spec.basis, 200)):
            if t % 5:
                continue
            block = -1j * angular_momentum(coeffs, t)
            resid = U.conj().T @ block @ U - np.diag(spec.eigenvalues(t))
            assert np.abs(resid).max() <= 1e-13 * 0.5 * max(t, 1)
            assert np.abs(U.conj().T @ U - np.eye(t + 1)).max() <= 1e-13


def test_field_inversion_makes_one_eigh(su2, monkeypatch):
    # one 2x2 eigh for the fundamental eigenbasis, whatever the band; the
    # inverse, the S00 check and the recursion read its spin powers
    calls = []
    eigh = np.linalg.eigh

    def counted(mat):
        calls.append(mat.shape)
        return eigh(mat)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    spec = build_field(su2, (0.36, 0.48, 0.8), 48)
    verify_s00(spec, 1.0, 44)
    recursion_residuals(spec, 1.0, 12)
    assert calls == [(2, 2)]
