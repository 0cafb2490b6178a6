"""Forward/inverse transform: roundtrip, norm identities, linearity."""
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmult.grids import GroupFunction
from gmult.groups import irrep_dimension, labels_up_to, model_from_name
from gmult.symbols import MatrixSymbol, default_grid
from gmult.transform import (fourier_forward, fourier_inverse,
                             function_norm_l2, plancherel_norm, sobolev_norm)
from conftest import random_symbol


def _roundtrip_error(model, band, rng):
    sym = random_symbol(model, band, rng)
    grid = default_grid(model, band)
    f = fourier_inverse(sym, grid)
    back = fourier_forward(f, band=band)
    num = sum(float(np.sum(np.abs(back.get(lb) - sym.get(lb)) ** 2))
              for lb in labels_up_to(model, band))
    den = sum(float(np.sum(np.abs(sym.get(lb)) ** 2))
              for lb in labels_up_to(model, band))
    return np.sqrt(num / den)


def test_roundtrip_su2(su2, rng):
    assert _roundtrip_error(su2, 8, rng) < 1e-12


def test_roundtrip_torus(torus3, rng):
    assert _roundtrip_error(torus3, 5, rng) < 1e-12


@settings(max_examples=8)
@given(band=st.integers(min_value=1, max_value=6),
       seed=st.integers(min_value=0, max_value=10 ** 6))
def test_roundtrip_property(band, seed):
    model = model_from_name("su2")
    assert _roundtrip_error(model, band, np.random.default_rng(seed)) < 1e-11


def test_round_trip_keeps_the_symbols_certificate(su2, torus2, rng):
    # a forward transform never certifies more than the symbol behind its
    # samples: support 16 certified through 12 on the band-8 SU(2) grid
    # (the grid alone certifies 16), support 8 through 5 on the band-8
    # torus-2 grid (the grid alone certifies 8); a symbol certified
    # everywhere gets the grid's certificate
    for model, support, exact, grid_cert in ((su2, 16, 12, 16),
                                             (torus2, 8, 5, 8)):
        grid = default_grid(model, 8)
        for cert, want in ((exact, exact), (np.inf, grid_cert)):
            f = fourier_inverse(random_symbol(model, support, rng,
                                              exact_band=cert), grid)
            assert f.exact_band == cert
            assert fourier_forward(f).exact_band == want


def test_norm_identity(su2, torus2, rng):
    for model, band in ((su2, 7), (torus2, 6)):
        sym = random_symbol(model, band, rng)
        grid = default_grid(model, band)
        f = fourier_inverse(sym, grid)
        assert function_norm_l2(f) == pytest.approx(plancherel_norm(sym),
                                                    rel=1e-12)


def test_l2_norm_is_the_weighted_node_sum(su2, torus3, rng):
    # phase means against the theta weights, and the torus mean, against
    # the flattened weight array, on samples that are not band limited
    for model, band in ((su2, 1), (su2, 6), (su2, 11), (torus3, 4)):
        grid = default_grid(model, band)
        samples = (rng.standard_normal(grid.node_count)
                   + 1j * rng.standard_normal(grid.node_count))
        want = np.sqrt(np.sum(grid.weights * np.abs(samples) ** 2))
        got = function_norm_l2(GroupFunction(grid, samples))
        assert abs(got - want) <= 1e-14 * want


def test_plancherel_weights(su2):
    # a single unit entry at label t contributes dimension * 1 to the
    # squared norm
    for t in (0, 1, 3):
        d = irrep_dimension(su2, t)
        mat = np.zeros((d, d), dtype=complex)
        mat[0, min(1, d - 1)] = 1.0
        sym = MatrixSymbol(su2, {t: mat})
        assert plancherel_norm(sym) == pytest.approx(np.sqrt(d), rel=1e-14)


def test_sobolev_weighting(su2):
    d = irrep_dimension(su2, 4)
    sym = MatrixSymbol(su2, {4: np.eye(d, dtype=complex)})
    lam = np.sqrt((4 / 2) * (4 / 2 + 1))
    base = plancherel_norm(sym)
    assert sobolev_norm(sym, 2.0) == pytest.approx(base * lam ** 2,
                                                   rel=1e-13)
    assert sobolev_norm(sym, -1.0) == pytest.approx(base / lam, rel=1e-13)
    # the weight floors at 1, so label 0 is unaffected by the order
    one = MatrixSymbol(su2, {0: np.ones((1, 1), dtype=complex)})
    assert sobolev_norm(one, -3.0) == pytest.approx(plancherel_norm(one),
                                                    rel=1e-14)


def test_transform_linearity(su2, rng):
    grid = default_grid(su2, 6)
    a = random_symbol(su2, 6, rng)
    b = random_symbol(su2, 6, rng)
    fa = fourier_inverse(a, grid)
    fb = fourier_inverse(b, grid)
    combo = fourier_forward(
        type(fa)(grid, 2.0 * fa.samples - 1j * fb.samples,
                 declared_band=6), band=6)
    for lb in labels_up_to(su2, 6):
        want = 2.0 * a.get(lb) - 1j * b.get(lb)
        assert np.allclose(combo.get(lb), want, atol=1e-11)


def test_constant_function_transform(su2):
    grid = default_grid(su2, 4)
    sym = MatrixSymbol(su2, {0: np.array([[2.5]], dtype=complex)})
    f = fourier_inverse(sym, grid)
    assert np.allclose(f.samples, 2.5, atol=1e-13)
    back = fourier_forward(f, band=2)
    assert back.get(0)[0, 0] == pytest.approx(2.5, abs=1e-13)
    assert np.allclose(back.get(2), 0.0, atol=1e-13)


def _direct_quadrature_errors(su2, band):
    """Relative errors of both SU(2) transforms on the band's grid against
    node sums of the explicit-sum Wigner tables, each coefficient as one
    weighted sum over the grid nodes, ``fhat(t)_{mn} = sum_g w_g f(g)
    conj(xi_t(g)_{nm})``, and each sample as ``f(g) = sum_t (t + 1)
    sum_{mn} xi_t(g)_{mn} sigma(t)_{nm}``: ``(forward, inverse)``."""
    grid = default_grid(su2, band)
    rng = np.random.default_rng(band)
    samples = (rng.standard_normal(grid.node_count)
               + 1j * rng.standard_normal(grid.node_count))
    top = grid.max_label_band
    got = fourier_forward(GroupFunction(grid, samples), band=top)
    sym = random_symbol(su2, top, rng)
    back = np.zeros(grid.node_count, dtype=complex)
    forward = 0.0
    for t in range(top + 1):
        want = np.empty((t + 1, t + 1), dtype=complex)
        for m in range(t + 1):
            for n in range(t + 1):
                xi = grid.coefficient_function(t, n, m)
                want[m, n] = np.sum(grid.weights * samples * np.conj(xi))
                back += (t + 1) * sym.get(t)[m, n] * xi
        forward = max(forward, np.max(np.abs(got.get(t) - want))
                      / np.max(np.abs(want)))
    inverse = (np.max(np.abs(fourier_inverse(sym, grid).samples - back))
               / np.max(np.abs(back)))
    return forward, inverse


@pytest.mark.parametrize("band", range(1, 8))
def test_su2_transforms_match_direct_quadrature(su2, band):
    # the explicit-sum tables are an oracle of the eigenbasis route while
    # their own error stays below it: against a 40-digit sum they are off
    # by 8e-14 at twice-spin 16 (band 8) and 2.6e-13 at 20, the eigenbasis
    # route by 3e-15
    assert max(_direct_quadrature_errors(su2, band)) <= 1e-13


def test_direct_quadrature_sees_one_eigenbasis_entry_off(su2, monkeypatch):
    # a 1e-9 change to one entry of one label's J_x eigenbasis (its spin
    # power, the labels above it untouched) fails the oracle above in both
    # transforms
    from gmult import transform

    real = transform.spin_powers

    def perturbed(V, band):
        for t, U in enumerate(real(V, band)):
            if t == 3:
                U = U.copy()
                U[1, -1] += 1e-9
            yield U

    monkeypatch.setattr(transform, "spin_powers", perturbed)
    forward, inverse = _direct_quadrature_errors(su2, 2)
    assert forward > 1e-11 and inverse > 1e-11


def test_su2_forward_holds_one_parity_plane_at_a_time(su2, rng, monkeypatch):
    # when a parity's Q is formed from its phase plane, the plane is the one
    # array of the phase stages still alive: no other parity's plane, and
    # no psi stage B of either parity
    from gmult import transform

    made, formed = [], []
    checkerboard = transform._checkerboard_matmul

    def recorded(stage):
        def call(*args, **kwargs):
            out = stage(*args, **kwargs)
            made.append(weakref.ref(out))
            return out
        return call

    def checked(cube, *args):
        alive = [r() for r in made if r() is not None]
        formed.append(len(alive) == 1 and alive[0] is cube)
        del alive
        return checkerboard(cube, *args)

    for name in ("tensordot", "matmul"):
        monkeypatch.setattr(np, name, recorded(getattr(np, name)))
    monkeypatch.setattr(transform, "_checkerboard_matmul", checked)
    grid = default_grid(su2, 6)
    samples = rng.standard_normal(grid.node_count) + 0j
    fourier_forward(GroupFunction(grid, samples), band=6)
    assert formed == [True, True] and len(made) == 4
