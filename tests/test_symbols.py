"""Symbol algebra and difference calculus: product rules, certificates,
operator quantization."""
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gmult import symbols
from gmult.central import CentralSequence
from gmult.checkers import (SymbolClassSpec, check_mikhlin, check_refined,
                            check_symbol_class)
from gmult.errors import BandOverflowError
from gmult.groups import irrep_dimension, labels_up_to, model_from_name
from gmult.symbols import (DifferenceWord, MatrixSymbol, TorusSymbol,
                           apply_difference, apply_differences,
                           default_grid,
                           difference_generators, difference_sup_tables,
                           generator_words, identity_symbol,
                           laplace_difference, laplace_leibniz_residual,
                           leibniz_residual, quantize_apply, symbol_add,
                           symbol_product, symbol_scale, vector_field_symbol,
                           word_sup_table)
from gmult.symbols import resize_box
from gmult.transform import fourier_forward, fourier_inverse
from gmult.vfield import (build_field, invert_vf_symbol, recursion_residuals,
                          verify_s00)
from conftest import (grid_differences, op_norm, random_symbol,
                      rho_squared_samples, su2_exp_point, wigner_matrix,
                      word_samples)


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


@pytest.mark.parametrize("hs", [False, True])
def test_matrix_symbol_norms_match_per_block(su2, rng, hs):
    # the label table against one reference norm per block: sparse labels,
    # a band beyond the support, label 0 alone
    sparse = {t: rng.standard_normal((t + 1, t + 1))
              + 1j * rng.standard_normal((t + 1, t + 1))
              for t in (0, 1, 3, 4, 7, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 22)}
    sparse[5] = np.zeros((6, 6))
    sparse[9][:, 1:] = 0.0                       # rank one
    cases = [(MatrixSymbol(su2, sparse), 20), (MatrixSymbol(su2, sparse), 30),
             (MatrixSymbol(su2, {0: np.array([[3.0 - 4.0j]])}), 0),
             (MatrixSymbol(su2, {0: np.array([[3.0 - 4.0j]])}), 5),
             (MatrixSymbol(su2, {}), 3)]
    for sym, band in cases:
        got = sym.norms(band, hs=hs)
        assert got.shape == (band + 1,)
        for t in range(band + 1):
            block = sym.get(t)
            for want in ((np.linalg.norm(block),) if hs
                         else (op_norm(block), np.linalg.norm(block, 2))):
                assert got[t] == pytest.approx(want, rel=1e-14, abs=0.0)


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
    assert out.get(moved)[0, 0] == pytest.approx(1.0)
    assert out.get(k)[0, 0] == pytest.approx(-1.0)


@pytest.mark.parametrize("name", ["torus-2", "torus-3"])
@pytest.mark.parametrize("exact", [np.inf, 3])
def test_torus_box_routes_match_grid_oracle(name, exact, rng):
    # the box slices against the FFT grid route, inside the certificate
    model = model_from_name(name)
    sym = random_symbol(model, 4, rng, exact_band=exact)
    cases = [(apply_difference(w, sym), w.band_sum,
              partial(word_samples, word=w))
             for w in generator_words(model, 1) + generator_words(model, 2)]
    cases.append((laplace_difference(sym), 1, rho_squared_samples))
    for got, wband, multiplier in cases:
        assert got.exact_band == exact - wband
        want = next(grid_differences(sym, wband, sym.support_band + wband,
                                      [multiplier]))
        cap = int(min(got.radius, got.exact_band))
        assert np.max(np.abs(resize_box(got.table, cap)
                             - resize_box(want.table, cap))) < 1e-12


@pytest.mark.parametrize("band", [0, 1, 4, 12])
@pytest.mark.parametrize("exact", [np.inf, "band"])
def test_su2_phase_route_matches_node_space_oracle(su2, band, exact, rng):
    # the phase-domain shifts against the node-space route (multiply the
    # kernel samples, transform back), on every stored label: all order-1
    # and order-2 adjoint words, the four fundamental words and rho^2
    sym = random_symbol(su2, band, rng,
                        exact_band=band if exact == "band" else np.inf)
    cases = [(laplace_difference(sym), 2, rho_squared_samples)]
    fundamental = [DifferenceWord(su2, ((1, a, b),)) for a in range(2)
                   for b in range(2)]
    for words in (generator_words(su2, 1), generator_words(su2, 2),
                  fundamental):
        # the words of one band share a kernel
        cases += [(got, w.band_sum, partial(word_samples, word=w))
                  for w, got in zip(words, apply_differences(words, sym))]
    for got, wband, multiplier in cases:
        want = next(grid_differences(sym, wband, sym.support_band + wband,
                                     [multiplier]))
        assert got.exact_band == min(sym.exact_band - wband,
                                     sym.support_band + wband)
        assert got.exact_band <= want.exact_band
        assert sorted(got.entries) == sorted(want.entries)
        scale = max(np.abs(m).max() for m in want.entries.values())
        for t, mat in want.entries.items():
            assert np.abs(got.entries[t] - mat).max() <= 1e-12 * scale


def _one_word_per_pass(monkeypatch):
    """Make `_label_blocks` run one pass per word and stack the words'
    blocks at each label, so no word shares its shifts' GEMMs."""
    real = symbols._label_blocks

    def split(sym, wband, out_band, combinations):
        passes = [real(sym, wband, out_band, [c]) for c in combinations]
        for labels in zip(*passes):
            assert len({t for t, _ in labels}) == 1
            yield labels[0][0], np.concatenate([b for _, b in labels])

    monkeypatch.setattr(symbols, "_label_blocks", split)


@pytest.mark.parametrize("words_per_pass", [None, 1])
def test_su2_word_sup_table_matches_node_space_oracle(su2, rng, monkeypatch,
                                                      words_per_pass):
    # all words of an order in one label pass, and one word per pass
    if words_per_pass == 1:
        _one_word_per_pass(monkeypatch)
    sym = random_symbol(su2, 12, rng, exact_band=12)
    for order in (1, 2):
        words = generator_words(su2, order)
        band = 12 - 2 * order
        got = word_sup_table(sym, order, band)
        want = np.max([d.norms(band) for d in grid_differences(
            sym, 2 * order, band, [partial(word_samples, word=w)
                                   for w in words])], axis=0)
        assert np.abs(got - want).max() <= 1e-12 * want.max()


@pytest.mark.parametrize("wband", [1, 2, 4])
def test_kernel_planes_are_the_sampled_kernels_phase_stage(su2, wband):
    # the label stage read directly against the forward phase stage of the
    # kernel synthesized on the difference grid, both parities laid out
    # (theta, u, v), at output
    # bands 0 and half the support (planes cropped where out + wband falls
    # below the support), at the support and at support + wband
    from gmult import transform

    rng = np.random.default_rng(wband)
    for support in range(13):
        sym = random_symbol(su2, support, rng)
        for out in sorted({0, support // 2, support, support + wband}):
            grid, _, planes, _ = symbols._kernel_planes(sym, wband, out)
            kernel = fourier_inverse(sym, grid)
            tables = {p: (ephi, epsi) for p, ephi, epsi, *_ in
                      transform._su2_parities(grid, out + wband, +1)}
            want = [transform._su2_forward_plane(grid, kernel.samples,
                                                 *tables[p])
                    .transpose(2, 0, 1) for p in (0, 1)]
            scale = max(np.abs(w).max() for w in want)
            for got, ref in zip(planes, want):
                assert got.shape == ref.shape
                assert np.abs(got - ref).max(initial=0.0) <= 1e-13 * scale


@pytest.mark.parametrize("words_per_pass", [None, 1])
def test_word_sup_table_holds_one_parity_stack_at_a_time(
        su2, rng, words_per_pass, monkeypatch):
    # the stack held is a label's: one _op_norm_sup call per label, in
    # label order, on the blocks of every word at that label, with all
    # words in one label pass and with one word per pass; no earlier
    # label's stack (nor the array under it) is alive when the next label
    # is normed
    if words_per_pass == 1:
        _one_word_per_pass(monkeypatch)
    real, live, seen = symbols._op_norm_sup, [], []

    def watched(blocks):
        assert all(ref() is None for ref in live)
        live.extend(weakref.ref(a) for a in (blocks, blocks.base)
                    if a is not None)
        seen.append(blocks.shape)
        return real(blocks)

    monkeypatch.setattr(symbols, "_op_norm_sup", watched)
    sym = random_symbol(su2, 12, rng, exact_band=12)
    for order, band in ((1, 9), (2, 8)):
        seen.clear()
        word_sup_table(sym, order, band)
        words = len(generator_words(su2, order))
        assert seen == [(words, t + 1, t + 1) for t in range(band + 1)]


def test_difference_walk_frees_each_wigner_table_after_its_label(
        su2, rng, monkeypatch):
    # when the walk yields label t, no little-d table of a label <= t is
    # alive (each went once its quadrature was formed), nor any past the
    # output band (those feed only the kernel's planes); the symbol runs
    # past the output band, so such tables are built
    from gmult.grids import GroupGrid

    real, built, checked = GroupGrid.little_d, [], []

    def watched(self, t):
        table = real(self, t)
        built.append((t, weakref.ref(table)))
        return table

    def walk(sym, wband, out_band, combinations):
        for t, blocks in real_blocks(sym, wband, out_band, combinations):
            alive = {s for s, ref in built if ref() is not None}
            assert not {s for s in alive if s <= t or s > out_band}
            checked.append(t)
            yield t, blocks

    real_blocks = symbols._label_blocks
    monkeypatch.setattr(GroupGrid, "little_d", watched)
    monkeypatch.setattr(symbols, "_label_blocks", walk)
    sym = random_symbol(su2, 12, rng, exact_band=12)
    difference_sup_tables(sym, [0, 1, 2], 8)
    assert checked == list(range(9))
    assert {t for t, _ in built} == set(range(13))


def test_apply_differences_makes_one_label_pass_per_word_band(su2, rng,
                                                              monkeypatch):
    # the words of one band share one pass over the labels, which yields
    # every word's block at each label through support + wband in order
    real, passes = symbols._label_blocks, []

    def watched(sym, wband, out_band, combinations):
        passes.append((wband, []))
        for t, blocks in real(sym, wband, out_band, combinations):
            passes[-1][1].append((t, blocks.shape))
            yield t, blocks

    monkeypatch.setattr(symbols, "_label_blocks", watched)
    sym = random_symbol(su2, 7, rng, exact_band=7)
    fundamental = [DifferenceWord(su2, ((1, a, b),)) for a in range(2)
                   for b in range(2)]
    words = generator_words(su2, 1) + generator_words(su2, 2) + fundamental
    got = apply_differences(words, sym)
    assert sorted(wband for wband, _ in passes) == [1, 2, 4]
    for wband, labels in passes:
        count = sum(w.band_sum == wband for w in words)
        assert labels == [(t, (count, t + 1, t + 1))
                          for t in range(7 + wband + 1)]
    for word, diff in zip(words, got):
        assert sorted(diff.entries) == list(range(7 + word.band_sum + 1))


@pytest.mark.parametrize("band", [8, 13, 20])
def test_fused_sup_tables_are_the_one_family_tables(su2, band):
    # orders 0..3 and rho^2 from one walk on the order-3 words' grid,
    # against each family's own walk (on the same grid: the symbol is
    # certified through its support); rho^2 also against the full route,
    # on the larger grid its labels through support + 2 need
    rng = np.random.default_rng(band)
    sym = random_symbol(su2, band + 6, rng, exact_band=band + 6)
    families = [0, 1, 2, 3, "laplace"]
    fused = difference_sup_tables(sym, families, band)
    for family, got in zip(families, fused):
        want = difference_sup_tables(sym, [family], band)[0]
        if family != "laplace":
            assert np.array_equal(want, word_sup_table(sym, family, band))
        assert got.shape == want.shape == (band + 1,)
        assert np.abs(got - want).max() <= 1e-14 * want.max()
    want = laplace_difference(sym).norms(band)
    assert np.abs(fused[-1] - want).max() <= 1e-12 * want.max()


def test_checkers_walk_the_labels_once_per_symbol(su2, rng, monkeypatch):
    # every order and rho^2 of a check share one walk over the symbol's
    # labels (each walk recorded by its word band); symbol-class walks
    # once more for its reweighted reduction, and the frame-field
    # inverse's recursion check once for its rotated fundamental
    # differences
    real, walks = symbols._label_blocks, []

    def watched(sym, wband, out_band, combinations):
        walks.append(wband)
        yield from real(sym, wband, out_band, combinations)

    monkeypatch.setattr(symbols, "_label_blocks", watched)
    sym = random_symbol(su2, 12, rng, exact_band=12)
    spec = SymbolClassSpec(order=0.0, rho=0.0, max_order=2)
    for check, want in ((check_mikhlin, [4]), (check_refined, [2]),
                        (partial(check_symbol_class, spec=spec), [4, 4])):
        walks.clear()
        check(sym, band=8)
        assert walks == want
    field = build_field(su2, [0.3, -0.2, 0.9], 12)
    walks.clear()
    verify_s00(field, 0.7 + 0.1j, 8)
    recursion_residuals(field, 0.7 + 0.1j, 8)
    assert walks == [4, 4, 1]


def test_fused_sup_tables_refuse_as_each_family_did(su2, rng):
    # the first family past its certificate names itself, as the
    # one-family routes did: the order message, and the laplace message
    # of a symbol certified beyond its support
    sym = random_symbol(su2, 10, rng, exact_band=10)
    order_msg = ("labels up to band 7 requested, but order-2 differences "
                 "are only exact through band 6; extend the stored symbol")
    for call in (lambda: difference_sup_tables(sym, [0, 1, 2, "laplace"], 7),
                 lambda: word_sup_table(sym, 2, 7),
                 lambda: check_mikhlin(sym, band=7)):
        with pytest.raises(BandOverflowError) as err:
            call()
        assert str(err.value) == order_msg
    sym = random_symbol(su2, 4, rng)
    assert difference_sup_tables(sym, [1], 7)[0].shape == (8,)
    laplace_msg = ("label band 7 beyond the laplace certificate 6; extend "
                   "the stored symbol")
    for call in (lambda: difference_sup_tables(sym, [0, 1, "laplace"], 7),
                 lambda: check_refined(sym, band=7)):
        with pytest.raises(BandOverflowError) as err:
            call()
        assert str(err.value) == laplace_msg


def test_pruned_operator_norm_sup_is_the_stacked_norm_bitwise(rng):
    # the sup over a label's words against the norm of every block:
    # random stacks of several sizes; rank-one blocks, whose computed
    # operator norm can round above their computed Frobenius norm; tied
    # Frobenius norms; a zero stack
    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    stacks = [gaussian(n, d, d) for n, d in ((40, 1), (30, 3), (12, 17))]
    rank_one = gaussian(60, 4)[:, :, None] * gaussian(60, 4)[:, None, :]
    stacks += [rank_one] + [rank_one[k:k + 1] for k in range(60)]
    tied = np.array([[[1, 1], [1, -1]], [[1, 1], [1, 1]], [[1, 1], [1, 1]],
                     [[1, -1], [1, 1]]], dtype=complex)
    stacks += [tied, 0.5 * tied, np.zeros((5, 3, 3), dtype=complex)]
    # near-unitary blocks, whose Gram bound is their norm up to rounding,
    # alone and under a rank-one block of larger norm but smaller
    # Frobenius norm: the Gram bound prunes them where Frobenius keeps them
    unitary = np.linalg.qr(gaussian(20, 5, 5))[0]
    unitary *= 1.0 + 1e-12 * rng.standard_normal((20, 1, 1))
    spike = 1.5 * np.outer(*np.eye(5)[:2]).astype(complex)[None]
    stacks += [unitary, np.concatenate([unitary, spike])]
    real_norm, svds = np.linalg.norm, []

    def counted(x, ord=None, axis=None, **kw):
        if ord == 2:
            svds.append(1 if x.ndim == 2 else x.shape[0])
        return real_norm(x, ord, axis, **kw)

    for blocks in stacks:
        want = np.linalg.norm(blocks, 2, axis=(1, 2)).max()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "norm", counted)
            svds.clear()
            assert symbols._op_norm_sup(blocks) == want
    assert svds == [1]
    fro = real_norm(stacks[-1], axis=(1, 2))
    assert (fro[:-1] > fro[-1]).all()


def test_su2_laplace_through_a_band_matches_the_full_route(su2, rng):
    # the rho^2 norms through the band, walked with the order-1 and
    # order-2 words on the order-2 words' grid, against every label on the
    # grid the full result needs
    sym = random_symbol(su2, 12, rng, exact_band=12)
    full = laplace_difference(sym)
    assert full.exact_band == 10
    want = full.norms(8)
    for families in (["laplace"], [1, 2, "laplace"]):
        got = difference_sup_tables(sym, families, 8)[-1]
        assert np.abs(got - want).max() <= 1e-12 * want.max()


@pytest.mark.parametrize("order, kernels", [(1, 3), (2, 5)])
def test_leibniz_residual_shares_kernels(su2, rng, monkeypatch, order,
                                         kernels):
    # one kernel label stage for the product, and one per symbol and word
    # band: the differences on sigma and tau come from apply_differences
    calls = []
    kernel_planes = symbols._kernel_planes

    def counted(sym, *args):
        calls.append(sym)
        return kernel_planes(sym, *args)

    monkeypatch.setattr(symbols, "_kernel_planes", counted)
    a = random_symbol(su2, 4, rng)
    b = random_symbol(su2, 4, rng)
    word = generator_words(su2, order)[-1]
    assert leibniz_residual(word, a, b, default_grid(su2, 8)) < 1e-10
    assert len(calls) == kernels


def laplace_decomposition_residual(sym) -> float:
    """Residual of the first-shell decomposition of the rho^2 operator:
    ``laplace(sigma) + sum_{xi0 in delta0} sum_i xi0 D_ii sigma = 0``."""
    model = sym.model
    total = laplace_difference(sym)
    for lb in model.delta0:
        d = irrep_dimension(model, lb)
        for i in range(d):
            word = DifferenceWord(model, ((lb, i, i),))
            total = symbol_add(total, apply_difference(word, sym))
    return float(np.max(total.norms(total.support_band), initial=0.0))


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
        assert abs(out.get(lb)[0, 0]) < 1e-13

    ident_s = identity_symbol(su2, 8)
    word_s = DifferenceWord(su2, ((2, 0, 1),))
    out_s = apply_difference(word_s, ident_s)
    for t in labels_up_to(su2, 6):
        assert np.max(np.abs(out_s.get(t))) < 1e-11


def test_difference_certificate_drops(su2, rng):
    sym = random_symbol(su2, 6, rng, exact_band=6)
    word = DifferenceWord(su2, ((2, 1, 1),))
    assert apply_difference(word, sym).exact_band == 4
    two = DifferenceWord(su2, ((2, 0, 0), (2, 1, 2)))
    assert apply_difference(two, sym).exact_band == 2
    # the rule: min(exact_band - wband, support + wband), read off the
    # symbol and the labels computed alone, over word bands 1, 2 and 4,
    # supports 0..8 and three symbol certificates; it is never above the
    # rule that also read the smallest grid's exactness (band B:
    # min(exact_band - wband, 4B - full, 2B))
    for factors in (((1, 0, 1),), ((2, 0, 1),), ((2, 0, 1), (2, 1, 2))):
        word = DifferenceWord(su2, factors)
        wband = word.band_sum
        for support in range(9):
            full = support + wband
            for exact in (np.inf, support, support + 3):
                sym = random_symbol(su2, support, rng, exact_band=exact)
                got = apply_difference(word, sym).exact_band
                assert got == min(exact - wband, full)
                B = max(1, (full + 1) // 2, (2 * full + 3) // 4)
                assert got <= min(exact - wband, 4 * B - full, 2 * B)


def test_grid_arguments_are_ignored(su2, rng):
    # the three functions that still accept a grid build their own: with
    # a grid far above the route's and one near it, each result equals the
    # call without one bit for bit
    a = random_symbol(su2, 6, rng, exact_band=6)
    b = random_symbol(su2, 6, rng, exact_band=6)
    words = generator_words(su2, 1)[:3] + generator_words(su2, 2)[-2:]
    lap = laplace_difference(a)
    residuals = [leibniz_residual(w, a, b) for w in words]
    laplace_residual = laplace_leibniz_residual(a, b)
    for grid in (default_grid(su2, 24), default_grid(su2, 8)):
        got = laplace_difference(a, grid)
        assert got.exact_band == lap.exact_band
        assert sorted(got.entries) == sorted(lap.entries)
        assert all(np.array_equal(got.entries[t], m)
                   for t, m in lap.entries.items())
        assert [leibniz_residual(w, a, b, grid) for w in words] == residuals
        assert laplace_leibniz_residual(a, b, grid) == laplace_residual


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
    assert laplace_decomposition_residual(sym) < 1e-10


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


def test_band_guard(su2, rng):
    sym = random_symbol(su2, 6, rng, exact_band=6)
    small = default_grid(su2, 2)
    with pytest.raises(BandOverflowError):
        fourier_inverse(sym, small)


# ---------------------------------------------------------------------------
# Certificates cannot be raised: a tail-perturbation audit
# ---------------------------------------------------------------------------

def _with_new_tail(sym, cert: int, rng: np.random.Generator):
    """A copy of ``sym`` with fresh random entries at the labels beyond
    ``cert``, and the same support and certificate."""
    if sym.model.kind == "torus":
        radius = sym.radius
        kinf = np.max(np.abs(np.indices(sym.table.shape) - radius), axis=0)
        table = sym.table.copy()
        tail = kinf > cert
        table[tail] = (rng.standard_normal(int(tail.sum()))
                       + 1j * rng.standard_normal(int(tail.sum())))
        return TorusSymbol(sym.model, table, sym.exact_band)
    entries = {t: (m if t <= cert else rng.standard_normal(m.shape)
                   + 1j * rng.standard_normal(m.shape))
               for t, m in sym.entries.items()}
    return MatrixSymbol(sym.model, entries, sym.exact_band)


def _certified(sym) -> np.ndarray:
    """The entries of ``sym`` at the labels inside its certificate, flat."""
    band = int(min(sym.exact_band, sym.support_band))
    if band < 0:
        return np.zeros(0)
    if sym.model.kind == "torus":
        return resize_box(sym.table, band).ravel()
    return np.concatenate([sym.get(t).ravel() for t in range(band + 1)])


def _assert_unmoved(a: np.ndarray, b: np.ndarray) -> None:
    scale = float(np.max(np.abs(a), initial=0.0))
    assert float(np.max(np.abs(a - b), initial=0.0)) <= 1e-10 * scale


def _constants(report) -> np.ndarray:
    """Every condition's constant and half constant of a checker report,
    then its reduction's."""
    out = []
    while report is not None:
        out += [v for c in report.conditions
                for v in (c.constant, c.half_constant)]
        report = report.reduction
    return np.array(out)


@settings(max_examples=25)
@given(group=st.sampled_from(["su2", "torus-2"]),
       support=st.integers(min_value=5, max_value=9),
       gap=st.integers(min_value=1, max_value=4),
       seed=st.integers(min_value=0, max_value=10 ** 6))
@example(group="torus-3", support=6, gap=2, seed=0)
def test_tail_beyond_the_certificate_moves_no_certified_output(group, support,
                                                               gap, seed):
    # a symbol certified through c, changed only beyond c: no route moves
    # an output entry inside the output's own certificate (c >= 4, the
    # largest band of an order-2 word on SU(2)), and no checker moves a
    # constant.  On SU(2) the central sequences and the frame-field
    # inverses, whose inputs are not symbols, take their own tails
    model = model_from_name(group)
    cert = max(4, support - gap)
    rng = np.random.default_rng(seed)
    sym = random_symbol(model, support, rng, exact_band=cert)
    other = _with_new_tail(sym, cert, rng)
    tau = random_symbol(model, support, rng)
    grid = default_grid(model, -(-support // 2) if model.kind == "su2"
                        else support)
    routes = {
        "differences": lambda s: apply_differences(
            generator_words(model, 1) + generator_words(model, 2), s),
        "laplace": lambda s: [laplace_difference(s)],
        "product": lambda s: [symbol_product(s, tau)],
        "round trip": lambda s: [fourier_forward(fourier_inverse(s, grid))],
    }
    for name, route in routes.items():
        for out, moved in zip(route(sym), route(other)):
            assert out.exact_band == moved.exact_band <= cert, name
            _assert_unmoved(_certified(out), _certified(moved))
    for order in range(3):
        wband = max(w.band_sum for w in generator_words(model, order))
        band = cert - wband
        _assert_unmoved(word_sup_table(sym, order, band),
                        word_sup_table(other, order, band))
    if model.kind == "su2":
        # a central sequence's values changed past the band its symbol is
        # certified through, with or without a declared finite support
        values = rng.standard_normal(support + 1)
        tail = np.arange(support + 1) > cert
        changed = np.where(tail, rng.standard_normal(support + 1), values)
        for finite in (False, True):
            out, moved = (CentralSequence(model, v, finite).as_symbol(cert)
                          for v in (values, changed))
            assert out.exact_band == moved.exact_band == cert
            _assert_unmoved(_certified(out), _certified(moved))
        # a shifted field's inverse, from the field built through c and
        # past it: blocks and word sups inside c do not move (the shift's
        # real part keeps it off the imaginary exceptional set)
        coeffs = rng.standard_normal(3)
        c = complex(1.0 + rng.random(), rng.standard_normal())
        out, moved = (invert_vf_symbol(build_field(model, coeffs, b), c)
                      for b in (cert, support))
        assert out.exact_band == cert < moved.exact_band
        _assert_unmoved(_certified(out), _certified(moved.restrict(cert)))
        for order in (1, 2):
            band = cert - 2 * order
            _assert_unmoved(word_sup_table(out, order, band),
                            word_sup_table(moved, order, band))
    # the checkers at their smallest range (8 labels per direction), on a
    # symbol certified just through what their order-kappa words need
    band = 7 if model.kind == "su2" else 4
    cert = band + max(w.band_sum
                      for w in generator_words(model, model.kappa))
    sym = random_symbol(model, cert + gap, rng, exact_band=cert)
    other = _with_new_tail(sym, cert, rng)
    spec = SymbolClassSpec(order=0.0, rho=1.0, max_order=model.kappa)
    for check in (check_mikhlin, check_refined,
                  partial(check_symbol_class, spec=spec)):
        _assert_unmoved(_constants(check(sym, band=band)),
                        _constants(check(other, band=band)))

