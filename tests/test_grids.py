"""Quadrature grids: normalization, exactness, coefficient functions."""
import dataclasses
import weakref

import numpy as np
import pytest

from gmult.errors import BandOverflowError
from gmult.grids import _leggauss, build_grid
from gmult.groups import irrep_dimension, labels_up_to
from conftest import integrate, rho_squared_samples


def test_haar_normalization(su2, torus3):
    for model, band in ((su2, 6), (torus3, 4)):
        grid = build_grid(model, band)
        assert integrate(grid, np.ones(grid.node_count)) == pytest.approx(
            1.0, abs=1e-13)
        assert np.all(grid.weights > 0)
        assert grid.weights.shape == (grid.node_count,)


def test_band_certificates(su2, torus3):
    g = build_grid(su2, 5)
    assert g.max_label_band >= 5
    assert g.exact_total_band >= 2 * 5
    t = build_grid(torus3, 5)
    assert t.max_label_band >= 5
    assert t.exact_total_band >= 2 * 5


def test_character_orthogonality_on_grid(su2):
    grid = build_grid(su2, 6)
    chars = {}
    for t in range(7):
        samples = np.zeros(grid.node_count, dtype=complex)
        for i in range(t + 1):
            samples += grid.coefficient_function(t, i, i)
        chars[t] = samples
    for ta in range(7):
        for tb in range(7):
            val = integrate(grid, chars[ta] * np.conj(chars[tb]))
            assert val == pytest.approx(1.0 if ta == tb else 0.0, abs=1e-11)


def test_schur_orthogonality_small(su2):
    # integral of D^t_ij conj(D^t_kl) = delta_ik delta_jl / dim
    grid = build_grid(su2, 4)
    for t in (1, 2):
        d = t + 1
        fns = {(i, j): grid.coefficient_function(t, i, j)
               for i in range(d) for j in range(d)}
        for (i, j), f in fns.items():
            for (k, l), h in fns.items():
                want = (1.0 / d) if (i, j) == (k, l) else 0.0
                assert integrate(grid, f * np.conj(h)) == pytest.approx(
                    want, abs=1e-12)


def test_cross_label_orthogonality(su2):
    grid = build_grid(su2, 4)
    f = grid.coefficient_function(2, 0, 1)
    h = grid.coefficient_function(4, 1, 1)
    assert integrate(grid, f * np.conj(h)) == pytest.approx(0.0, abs=1e-12)


def test_torus_characters(torus3):
    grid = build_grid(torus3, 3)
    e100 = grid.coefficient_function((1, 0, 0))
    e111 = grid.coefficient_function((1, 1, 1))
    assert integrate(grid, e100 * np.conj(e100)) == pytest.approx(1.0,
                                                                 abs=1e-13)
    assert integrate(grid, e100 * np.conj(e111)) == pytest.approx(0.0,
                                                                 abs=1e-13)
    assert integrate(grid, e100) == pytest.approx(0.0, abs=1e-13)


def test_distance_squared_range(su2, torus3):
    # rho^2 is 0 at the identity node region and bounded by the diameter
    for model, cap in ((su2, 4.0), (torus3, 4.0 * 3)):
        grid = build_grid(model, 5)
        vals = rho_squared_samples(grid)
        assert np.min(vals) >= -1e-13
        assert np.max(vals) <= cap + 1e-12


def test_little_d_grid_consistency(su2):
    from gmult.groups import wigner_little_d
    grid = build_grid(su2, 4)
    table = grid.little_d(3)
    # table is indexed by the theta nodes of the grid
    thetas = grid.thetas
    assert table.shape[0] == len(thetas)
    ref = wigner_little_d(3, float(thetas[1]))
    assert np.allclose(table[1], ref, atol=1e-12)
    ref = wigner_little_d(3, float(thetas[2]))
    assert np.allclose(table[2], ref, atol=1e-12)


@pytest.mark.parametrize("band", [1, 8, 22, 28, 64, 128])
def test_su2_theta_rule_is_the_gauss_legendre_engine(su2, band):
    # grids and the probe's radial rules share one Gauss-Legendre engine
    x, w = _leggauss(band + 1)
    grid = build_grid(su2, band)
    assert np.array_equal(grid.thetas, np.arccos(x))
    assert np.array_equal(grid.theta_weights, w)


def test_grid_holds_no_wigner_table(su2, rng, monkeypatch):
    # a transform pair reads no table, and every table a difference family
    # builds is gone once the call returns: neither the grid nor anything
    # else keeps it
    from gmult.grids import GroupGrid
    from gmult.symbols import random_symbol, word_sup_table
    from gmult.transform import fourier_forward, fourier_inverse

    real, built = GroupGrid.little_d, []

    def watched(self, twice_spin):
        table = real(self, twice_spin)
        built.append(weakref.ref(table))
        return table

    monkeypatch.setattr(GroupGrid, "little_d", watched)
    grid = build_grid(su2, 4)
    assert grid.little_d(3) is not grid.little_d(3)
    sym = random_symbol(su2, 8, rng, exact_band=8)
    fourier_forward(fourier_inverse(sym, grid))
    assert len(built) == 2          # the two reads above
    word_sup_table(sym, 1, 6)
    assert len(built) == 2 + 9      # the walk builds labels 0..8 once each
    assert all(ref() is None for ref in built)
    # a grid is frozen data: it holds its node arrays and nothing else
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.tables = {}
    assert set(vars(grid)) == {f.name for f in dataclasses.fields(grid)}
    assert all(isinstance(getattr(grid, name), np.ndarray)
               for name in ("phis", "thetas", "theta_weights", "psis"))


def test_overflow_guard(su2):
    from gmult.grids import GroupFunction
    from gmult.transform import fourier_forward
    grid = build_grid(su2, 3)
    f = GroupFunction(grid, np.ones(grid.node_count, dtype=complex),
                      declared_band=3)
    with pytest.raises(BandOverflowError):
        fourier_forward(f, band=grid.max_label_band + 1)
