"""Symbol algebra and difference calculus: product rules, certificates,
operator quantization."""
from functools import partial

import numpy as np
import pytest

from gmult.errors import BandOverflowError
from gmult.grids import rho_squared_samples
from gmult.groups import (irrep_dimension, labels_up_to, model_from_name,
                          su2_exp_point, wigner_matrix)
from gmult.symbols import (DifferenceWord, MatrixSymbol, TorusSymbol,
                           apply_difference, default_grid,
                           difference_generators,
                           generator_words, identity_symbol,
                           laplace_decomposition_residual, laplace_difference,
                           laplace_leibniz_residual, leibniz_residual,
                           op_norm, quantize_apply, seminorm, symbol_add,
                           symbol_product, symbol_scale, vector_field_symbol)
from gmult.symbols import _grid_differences, _word_samples, resize_box
from gmult.transform import fourier_forward, fourier_inverse
from conftest import random_symbol


def test_symbol_algebra(su2, rng):
    a = random_symbol(su2, 4, rng, exact_band=4)
    b = random_symbol(su2, 4, rng, exact_band=6)
    s = symbol_add(a, b, beta=-2.0)
    for t in labels_up_to(su2, 4):
        assert np.allclose(s.get(t), a.get(t) - 2.0 * b.get(t))
    assert s.exact_band == 4
    p = symbol_product(a, b)
    assert np.allclose(p.get(3), a.get(3) @ b.get(3))
    assert symbol_scale(a, 1j).get(2) == pytest.approx(1j * a.get(2))


def test_identity_symbol_and_op_norm(su2):
    ident = identity_symbol(su2, 5)
    for t in labels_up_to(su2, 5):
        assert op_norm(ident.get(t)) == pytest.approx(1.0, abs=1e-14)


def test_generator_inventory(su2, torus3):
    gens = difference_generators(su2)
    assert len(gens) == 9  # one 3x3 first-shell coefficient block
    assert all(w.order == 1 for w in gens)
    assert len(difference_generators(torus3)) == 6
    # order-2 words are unordered generator multisets: 9 * 10 / 2
    assert len(generator_words(su2, 2)) == 45


def test_torus_difference_shift(torus3):
    # on the torus the difference of a lattice delta telescopes exactly
    k = (2, 0, -1)
    table = np.zeros((5, 5, 5), dtype=complex)
    table[2 + 2, 2 + 0, 2 - 1] = 1.0
    sym = TorusSymbol(torus3, table)
    word = DifferenceWord(torus3, (((1, 0, 0), 0, 0),))
    out = apply_difference(word, sym)
    moved = (3, 0, -1)
    assert out.scalar(moved) == pytest.approx(1.0)
    assert out.scalar(k) == pytest.approx(-1.0)


@pytest.mark.parametrize("name", ["torus-2", "torus-3"])
@pytest.mark.parametrize("exact", [np.inf, 3])
def test_torus_box_routes_match_grid_oracle(name, exact, rng):
    # the box slices against the FFT grid route, inside the certificate
    model = model_from_name(name)
    sym = random_symbol(model, 4, rng, exact_band=exact)
    cases = [(apply_difference(w, sym), w.band_sum,
              partial(_word_samples, word=w))
             for w in generator_words(model, 1) + generator_words(model, 2)]
    cases.append((laplace_difference(sym), 1, rho_squared_samples))
    for got, wband, multiplier in cases:
        assert got.exact_band == exact - wband
        want = next(_grid_differences(sym, wband, sym.support_band + wband,
                                      [multiplier]))
        cap = int(min(got.radius, got.exact_band))
        assert np.max(np.abs(resize_box(got.table, cap)
                             - resize_box(want.table, cap))) < 1e-12


def test_torus_product_rules(torus2, rng):
    # the Leibniz and decomposition identities hold on finitely supported
    # boxes, so they also exercise box sums and products
    a = random_symbol(torus2, 3, rng)
    b = random_symbol(torus2, 2, rng)
    for word in generator_words(torus2, 1) + generator_words(torus2, 2):
        assert leibniz_residual(word, a, b) < 1e-12
    assert laplace_leibniz_residual(a, b) < 1e-12
    assert laplace_decomposition_residual(a) < 1e-12


def test_difference_of_identity_vanishes(torus3, su2, rng):
    # the identity symbol is the transform of the delta kernel; every
    # first difference annihilates it
    word_t = DifferenceWord(torus3, (((0, 1, 0), 0, 0),))
    ident_t = identity_symbol(torus3, 3)
    out = apply_difference(word_t, ident_t)
    for lb in labels_up_to(torus3, 2):
        assert abs(out.scalar(lb)) < 1e-13

    ident_s = identity_symbol(su2, 8)
    word_s = DifferenceWord(su2, ((2, 0, 1),))
    out_s = apply_difference(word_s, ident_s, default_grid(su2, 12))
    for t in labels_up_to(su2, 6):
        assert np.max(np.abs(out_s.get(t))) < 1e-11


def test_difference_certificate_drops(su2, rng):
    sym = random_symbol(su2, 6, rng, exact_band=6)
    word = DifferenceWord(su2, ((2, 1, 1),))
    out = apply_difference(word, sym, default_grid(su2, 10))
    assert out.exact_band <= 4
    two = DifferenceWord(su2, ((2, 0, 0), (2, 1, 2)))
    assert apply_difference(two, sym, default_grid(su2, 12)).exact_band <= 2


def test_leibniz_rule_small(su2, rng):
    grid = default_grid(su2, 8)
    words = [DifferenceWord(su2, ((2, i, j),)) for i in range(3)
             for j in range(3)]
    for _ in range(3):
        a = random_symbol(su2, 4, rng)
        b = random_symbol(su2, 4, rng)
        for w in words:
            assert leibniz_residual(w, a, b, grid) < 1e-10


def test_laplace_product_rule(su2, rng):
    grid = default_grid(su2, 8)
    a = random_symbol(su2, 4, rng)
    b = random_symbol(su2, 4, rng)
    assert laplace_leibniz_residual(a, b, grid) < 1e-10


def test_laplace_decomposition(su2, rng):
    # the distance-squared operator equals its first-shell word expansion
    sym = random_symbol(su2, 5, rng)
    assert laplace_decomposition_residual(sym, default_grid(su2, 9)) < 1e-10


def test_laplace_on_characters(su2):
    # on a central delta at label t the operator acts through the
    # dimension-weighted second difference; label 0 sees the
    # heat-kernel-style eigenvalue of the first shell
    sym = MatrixSymbol(su2, {0: np.array([[1.0]], dtype=complex)},
                       exact_band=0)
    out = laplace_difference(sym, default_grid(su2, 6))
    # rho^2 = 3 - chi_2, so the transform lives on labels 0 and 2 only:
    # mean 3 at label 0 and -(1/3) I on the first shell
    assert out.get(0)[0, 0] == pytest.approx(3.0, abs=1e-11)
    assert np.max(np.abs(out.get(1))) < 1e-11
    assert np.allclose(out.get(2), -np.eye(3) / 3.0, atol=1e-11)
    assert np.max(np.abs(out.get(4))) < 1e-11


def test_quantize_identity(su2, rng):
    grid = default_grid(su2, 6)
    f = fourier_inverse(random_symbol(su2, 4, rng), grid)
    out = quantize_apply(identity_symbol(su2, 6), f)
    assert np.allclose(out.samples, f.samples, atol=1e-11)


def test_quantize_projector(su2, rng):
    # a symbol supported on one label projects onto that isotypic block
    grid = default_grid(su2, 6)
    sym = random_symbol(su2, 4, rng)
    f = fourier_inverse(sym, grid)
    d = irrep_dimension(su2, 3)
    proj = MatrixSymbol(su2, {3: np.eye(d, dtype=complex)}, exact_band=6)
    out = fourier_forward(quantize_apply(proj, f), band=4)
    assert np.allclose(out.get(3), sym.get(3), atol=1e-11)
    for t in (0, 1, 2, 4):
        assert np.max(np.abs(out.get(t))) < 1e-11


def test_vector_field_symbol_diagonal(su2):
    sym = vector_field_symbol(su2, (0.0, 0.0, 1.0), 8)
    for t in labels_up_to(su2, 6):
        mat = sym.get(t)
        off = mat - np.diag(np.diag(mat))
        assert np.max(np.abs(off)) < 1e-10
        mus = np.arange(-t, t + 1, 2)
        assert np.allclose(np.diag(mat), -1j * mus / 2.0, atol=1e-10)


def _stencil_vector_field_symbol(model, coeffs, band, step=1e-4):
    """Oracle: the derivative of ``xi(exp(s X))`` at ``s = 0`` by the
    centered five-point stencil on Wigner matrices."""
    pts = {s: su2_exp_point(coeffs, s * step) for s in (1, 2, -1, -2)}
    entries = {}
    for t in range(band + 1):
        D = {s: wigner_matrix(t, p) for s, p in pts.items()}
        entries[t] = (8.0 * (D[1] - D[-1]) - (D[2] - D[-2])) / (12.0 * step)
    return MatrixSymbol(model, entries, exact_band=band)


def test_vector_field_symbol_is_a_lie_algebra_action(su2, rng):
    # exactly skew-Hermitian blocks with [X(a), X(b)] = X(a x b)
    a, b = rng.standard_normal(3), rng.standard_normal(3)
    xa, xb, xab = (vector_field_symbol(su2, v, 40)
                   for v in (a, b, np.cross(a, b)))
    for t in range(41):
        A, B = xa.get(t), xb.get(t)
        assert np.array_equal(A, -A.conj().T)
        assert np.max(np.abs(A @ B - B @ A - xab.get(t))) < 1e-12


def test_vector_field_symbol_matches_stencil_oracle(su2, rng):
    for _ in range(3):
        a = rng.standard_normal(3)
        exact = vector_field_symbol(su2, a, 20)
        oracle = _stencil_vector_field_symbol(su2, a, 20)
        for t in range(21):
            assert np.max(np.abs(exact.get(t) - oracle.get(t))) < 1e-9


def test_vector_field_symbol_spectrum(su2, rng):
    # the label-120 block has eigenvalues -i |a| m, m = -60..60
    a = rng.standard_normal(3)
    block = vector_field_symbol(su2, a, 120).get(120)
    herm_eigs = np.linalg.eigvalsh(1j * block)
    expected = np.linalg.norm(a) * np.arange(-60, 61)
    assert np.max(np.abs(herm_eigs - expected)) < 1e-12


def test_seminorm_identity(su2):
    ident = identity_symbol(su2, 12)
    val = seminorm(ident, 0, 0.0, 6)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_band_guard(su2, rng):
    sym = random_symbol(su2, 6, rng, exact_band=6)
    small = default_grid(su2, 2)
    with pytest.raises(BandOverflowError):
        fourier_inverse(sym, small)
