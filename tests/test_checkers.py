"""Multiplier-condition checkers: decay-weighted difference bounds on both
models, symbol-class membership, empirical operator-ratio probe."""
import numpy as np
import pytest

from gmult.central import function_of_laplacian, riesz_symbol
from gmult.checkers import (SymbolClassSpec, check_mikhlin, check_refined,
                            check_symbol_class, check_torus3,
                            empirical_lp_ratio, torus_lattice_symbol)
from gmult.cli import parse_torus_expression
from gmult.groups import bracket_powers, label_bands, model_from_name
from gmult.symbols import TorusSymbol, identity_symbol


def _t3_symbol(torus3, expr, band):
    return torus_lattice_symbol(torus3, parse_torus_expression(expr, 3),
                                band, pad=4)


def test_mikhlin_riesz_su2(su2):
    rep = check_mikhlin(riesz_symbol(su2, (0.0, 0.0, 1.0), 20), 16)
    assert rep.passed
    assert rep.condition("order-0").constant == pytest.approx(0.942809,
                                                              abs=1e-5)
    assert rep.condition("order-1").constant == pytest.approx(1.051204,
                                                              abs=1e-5)
    assert rep.condition("order-2").constant == pytest.approx(2.056123,
                                                              abs=1e-5)
    assert rep.condition("order-0").growth == pytest.approx(1.054093,
                                                            abs=1e-5)


def test_refined_riesz_su2(su2):
    rep = check_refined(riesz_symbol(su2, (0.0, 0.0, 1.0), 20), 16)
    assert rep.passed
    names = [c.name for c in rep.conditions]
    assert names == ["order-0", "order-1", "laplace-1"]
    assert rep.condition("laplace-1").constant == pytest.approx(1.882368,
                                                                abs=1e-5)
    assert rep.condition("laplace-1").growth == pytest.approx(1.058717,
                                                              abs=1e-5)


def test_torus3_riesz_expression(torus3):
    rep = check_torus3(_t3_symbol(torus3, "k1/abs(k)", 16), 16)
    assert rep.passed
    consts = [c.constant for c in rep.conditions]
    assert consts[0] == pytest.approx(1.0, abs=1e-9)
    assert consts[1] == pytest.approx(1.0, abs=1e-6)
    assert consts[2] == pytest.approx(0.361929, abs=1e-5)
    assert all(c.growth == pytest.approx(1.0, abs=1e-9)
               for c in rep.conditions)


def test_torus3_sign_fails_first_difference(torus3):
    rep = check_torus3(_t3_symbol(torus3, "sign(k1)", 16), 16)
    assert not rep.passed
    assert rep.condition("bounded").passed
    first = rep.condition("first-difference")
    assert not first.passed
    assert first.constant == pytest.approx(22.649503, abs=1e-4)
    assert first.growth == pytest.approx(1.994178, abs=1e-4)


def test_torus3_log_fails_boundedness(torus3):
    rep = check_torus3(_t3_symbol(torus3, "log(1+abs(k))", 12), 12)
    assert not rep.passed
    bounded = rep.condition("bounded")
    assert not bounded.passed
    assert bounded.growth == pytest.approx(1.266454, abs=1e-4)
    assert rep.condition("first-difference").passed
    assert rep.condition("second-difference").passed


def test_torus3_oscillation_fails(torus3):
    rep = check_torus3(_t3_symbol(torus3, "exp(1j*abs(k))", 16), 16)
    assert not rep.passed
    assert rep.condition("bounded").passed
    first = rep.condition("first-difference")
    assert not first.passed
    assert first.growth == pytest.approx(1.963481, abs=1e-4)


def test_torus3_constant_passes(torus3):
    rep = check_torus3(_t3_symbol(torus3, "2.5", 8), 8)
    assert rep.passed
    assert rep.condition("bounded").constant == pytest.approx(2.5, abs=1e-12)
    assert rep.condition("first-difference").constant == pytest.approx(
        0.0, abs=1e-12)


def test_lattice_symbol_table(torus3):
    sym = _t3_symbol(torus3, "k1/abs(k)", 6)
    assert isinstance(sym, TorusSymbol)
    r = sym.radius
    assert r == 10  # band + pad
    assert sym.table[r, r, r] == pytest.approx(0.0)  # origin patched
    assert sym.table[r + 3, r, r] == pytest.approx(1.0)
    assert sym.table[r, r + 4, r] == pytest.approx(0.0)


@pytest.mark.parametrize("name,expr", [("torus-2", "k1/abs(k) + k2"),
                                       ("torus-3", "k1/abs(k) + k2 * k3"),
                                       ("torus-3", "2")])
def test_sparse_label_axes_match_dense_box(name, expr):
    # the broadcastable axes of label_box give the same tables as full
    # coordinate meshgrids
    model = model_from_name(name)
    band = 5
    dense = np.meshgrid(*([np.arange(-band, band + 1)] * model.n),
                        indexing="ij")
    assert np.array_equal(label_bands(model, band),
                          np.max(np.abs(dense), axis=0))
    lam = 2.0 * np.pi * np.sqrt(sum(a.astype(float) ** 2 for a in dense))
    assert np.array_equal(bracket_powers(model, band, -1.5),
                          np.maximum(1.0, lam) ** -1.5)
    fn = parse_torus_expression(expr, model.n)
    sym = torus_lattice_symbol(model, fn, band - 1, pad=1)
    assert np.array_equal(sym.table, fn(*dense))


def test_symbol_class_membership(su2):
    seq = function_of_laplacian(lambda x: (1.0 + x) ** -0.5, 24)
    rep = check_symbol_class(seq.as_symbol(24), SymbolClassSpec(-1.0, 1.0, 2),
                             20)
    assert rep.passed
    assert rep.condition("order-1").constant == pytest.approx(0.982641,
                                                              abs=1e-5)
    assert rep.condition("order-2").constant == pytest.approx(1.910824,
                                                              abs=1e-5)


def test_symbol_class_wrong_order_fails(su2):
    # the identity has order 0; claiming order -1 must fail the
    # zeroth condition
    rep = check_symbol_class(identity_symbol(su2, 20),
                             SymbolClassSpec(-1.0, 1.0, 1), 16)
    assert not rep.passed
    assert not rep.condition("order-0").passed


def test_symbol_class_spec_validation():
    with pytest.raises(Exception):
        SymbolClassSpec(0.0, 1.5, 2)
    with pytest.raises(Exception):
        SymbolClassSpec(0.0, -0.1, 2)


def test_empirical_ratio_identity(su2):
    out = empirical_lp_ratio(identity_symbol(su2, 10), 2.5, trials=4,
                             band=6, seed=0)
    assert out["max"] == pytest.approx(1.0, abs=1e-11)
    assert out["median"] == pytest.approx(1.0, abs=1e-11)


def test_empirical_ratio_riesz_frozen(su2):
    sym = riesz_symbol(su2, (0.0, 0.0, 1.0), 12)
    out = empirical_lp_ratio(sym, 4.0, trials=5, band=8, seed=0)
    assert out["max"] == pytest.approx(0.592637, abs=1e-5)
    assert out["median"] == pytest.approx(0.583818, abs=1e-5)


def test_empirical_ratio_seeding(su2):
    sym = riesz_symbol(su2, (0.0, 0.0, 1.0), 12)
    a = empirical_lp_ratio(sym, 4.0, trials=5, band=8, seed=0)
    b = empirical_lp_ratio(sym, 4.0, trials=5, band=8, seed=0)
    c = empirical_lp_ratio(sym, 4.0, trials=5, band=8, seed=1)
    assert a == b
    assert a != c
    with pytest.raises(ValueError):
        empirical_lp_ratio(sym, 1.0, trials=2, band=4, seed=0)


def test_report_serialization(su2):
    rep = check_mikhlin(riesz_symbol(su2, (0.0, 0.0, 1.0), 14), 10)
    data = rep.as_dict()
    assert data["passed"] is True
    assert data["check"] == "mikhlin"
    assert {c["name"] for c in data["conditions"]} == {"order-0", "order-1",
                                                       "order-2"}
    for c in data["conditions"]:
        assert set(c) >= {"name", "constant", "half_constant", "growth",
                          "passed"}
