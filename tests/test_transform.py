"""Forward/inverse transform: roundtrip, norm identities, linearity."""
import weakref
from collections import Counter

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


def _phase_stage_checks(monkeypatch, stages, keep, theta_axis):
    """Wrap ``np.<stage>`` for each of ``stages`` to keep a weak reference
    to each 3-D array it returns for which ``keep(out)`` holds, and
    ``transform._checkerboard_matmul`` to record, at each call, whether
    its cube and the array under ``out`` are the only ones of those still
    alive, and the theta rows of that call's quarter (axis ``theta_axis``
    of its theta modes).  Returns the records and the kept references."""
    from gmult import transform

    made, formed = [], []
    checkerboard = transform._checkerboard_matmul

    def recorded(stage):
        def call(*args, **kwargs):
            out = stage(*args, **kwargs)
            if out.ndim == 3 and keep(out):
                made.append(weakref.ref(out))
            return out
        return call

    def checked(cube, even, odd, out):
        alive = [r() for r in made if r() is not None]
        owner = out if out.base is None else out.base
        formed.append((len(alive) == 2 and any(a is cube for a in alive)
                       and any(a is owner for a in alive),
                       even.shape[theta_axis]))
        del alive
        return checkerboard(cube, even, odd, out)

    for name in stages:
        monkeypatch.setattr(np, name, recorded(getattr(np, name)))
    monkeypatch.setattr(transform, "_checkerboard_matmul", checked)
    return formed, made


def test_su2_forward_holds_one_parity_plane_at_a_time(su2, rng, monkeypatch):
    # Q is formed a theta quarter at a time: when a quarter's phase plane
    # is added into its parity's Q, that plane and Q are the only arrays
    # of the phase stages alive (no other quarter's or parity's plane or
    # Q, and no psi stage B), and each parity's quarters partition the
    # 9 theta rows of the band-8 grid, at most ceil(9 / 4) = 3 each
    formed, made = _phase_stage_checks(
        monkeypatch, ("zeros", "tensordot", "matmul"), lambda out: True, 0)
    grid = default_grid(su2, 8)
    samples = rng.standard_normal(grid.node_count) + 0j
    fourier_forward(GroupFunction(grid, samples), band=16)
    assert formed == 2 * [(True, 3), (True, 3), (True, 3)]
    # per quarter a psi stage B and a plane, per parity one Q
    assert len(made) == 2 * len(formed) + 2


def test_su2_inverse_holds_one_parity_cube_at_a_time(su2, rng, monkeypatch):
    # when a theta quarter's H is formed from its parity's (u, v, k) cube
    # G, that G and H are the only arrays of the phase stages alive (no
    # other parity's G, no other quarter's H, and no phi stage), and each
    # parity's quarters partition the 7 theta rows of the band-6 grid, at
    # most ceil(7 / 4) = 2 each
    grid = default_grid(su2, 6)
    formed, made = _phase_stage_checks(
        monkeypatch, ("zeros", "tensordot"),
        lambda out: out.shape != grid.shape, 1)         # not the samples
    fourier_inverse(random_symbol(su2, 6, rng), grid)
    assert formed == 2 * [(True, 2), (True, 2), (True, 2), (True, 1)]
    # per quarter an H and its phi and psi stages, per parity one G
    assert len(made) == 3 * len(formed) + 2


def test_su2_forward_reads_each_theta_row_once_per_parity(su2, rng,
                                                         monkeypatch):
    # every operand of the phase stages that views the samples, mapped
    # back to the samples' theta rows, covers each row exactly once per
    # parity: no stage re-reads samples another has read
    grid = default_grid(su2, 8)
    samples = rng.standard_normal(grid.node_count) + 0j
    index = np.arange(samples.size)
    origin = samples.__array_interface__["data"][0]
    reads = Counter()

    def watched(stage):
        def call(*args, **kwargs):
            for x in args:
                if isinstance(x, np.ndarray) and np.may_share_memory(
                        x, samples):
                    start = ((x.__array_interface__["data"][0] - origin)
                             // samples.itemsize)
                    at = np.lib.stride_tricks.as_strided(
                        index[start:], x.shape,
                        [st // samples.itemsize * index.itemsize
                         for st in x.strides])
                    reads.update((at // grid.shape[2] % grid.shape[1])
                                 .ravel().tolist())
            return stage(*args, **kwargs)
        return call

    for name in ("tensordot", "matmul"):
        monkeypatch.setattr(np, name, watched(getattr(np, name)))
    fourier_forward(GroupFunction(grid, samples), band=16)
    per_row = 2 * grid.shape[0] * grid.shape[2]         # two parities
    assert reads == {a: per_row for a in range(grid.shape[1])}


def test_su2_inverse_holds_one_samples_array(su2, rng, monkeypatch):
    # no two arrays larger than three quarters of the samples are ever
    # alive at once: each parity adds into the one samples array, at the
    # grid's top label too, where the psi twice-weights nearly fill it
    from gmult import transform

    grid = default_grid(su2, 6)
    big, most = [], []

    def recorded(stage):
        def call(*args, **kwargs):
            out = stage(*args, **kwargs)
            if 4 * out.size > 3 * grid.node_count:
                big.append(weakref.ref(out))
                most.append(sum(r() is not None for r in big))
            return out
        return call

    for name in ("zeros", "empty", "tensordot", "matmul", "concatenate"):
        monkeypatch.setattr(np, name, recorded(getattr(np, name)))
    f = fourier_inverse(random_symbol(su2, 12, rng), grid)
    assert most == [1] and f.samples.size == grid.node_count


@pytest.mark.parametrize("grid_band", [1, 2, 4, 28])
@pytest.mark.parametrize("label", [0, 1])
def test_su2_round_trip_of_one_label(su2, rng, label, grid_band):
    # a symbol at label 0 alone leaves one parity without twice-weights:
    # its stages do nothing, and the round trip still holds; the band-B
    # grid has B + 1 theta rows, here 2, 3, 5 and 29, no count a multiple
    # of 4, so the theta quarters come short or fewer than four
    d = label + 1
    block = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    sym = MatrixSymbol(su2, {label: block})
    grid = default_grid(su2, grid_band)
    back = fourier_forward(fourier_inverse(sym, grid), band=label)
    assert sorted(back.entries) == list(range(label + 1))
    for t in range(label + 1):
        assert np.abs(back.get(t) - sym.get(t)).max() <= 1e-13


def test_su2_transforms_walk_the_spin_powers_once(su2, rng, monkeypatch):
    # both parities' label kernels come from one walk through the top label
    from gmult import transform

    calls, real = [], transform.spin_powers

    def counted(V, band):
        calls.append(band)
        return real(V, band)

    monkeypatch.setattr(transform, "spin_powers", counted)
    grid = default_grid(su2, 6)
    f = fourier_inverse(random_symbol(su2, 6, rng), grid)
    assert calls == [6]
    fourier_forward(f, band=6)
    assert calls == [6, 6]
