"""Boundedness checkers for multiplier symbols.

Each checker evaluates a family of difference-operator seminorms on a finite
label range and reports per-condition constants.  "Pass" means every required
constant is finite and a growth diagnostic — the ratio of the constant on the
full range to the constant on the nested half range — stays below
``GROWTH_THRESHOLD``; this is the honest finite-range rendering of an
all-label bound, and reports say so.

One code path serves both models.  The difference tables of a check come
from one :func:`gmult.symbols.difference_sup_tables` call (lattice slices
of the dense box on the torus, one quadrature walk over the labels on
SU(2)) as label tables, and every constant is a weighted sup over such a
table.  Reads stay inside the symbol's exactness certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .errors import BandOverflowError, GmultError, SymbolFormatError
from .groups import GroupModel, bracket_powers, label_box
from .grids import build_grid
from .symbols import (DifferenceWord, TorusSymbol, apply_difference,
                      difference_generators, difference_sup_tables,
                      laplace_difference, quantize_apply, random_symbol,
                      symbol_scale)
from .transform import fourier_inverse

GROWTH_THRESHOLD = 1.25
_MIN_LABELS_PER_DIRECTION = 8
#: words of orders <= max_order one symbol-class walk may hold: admits
#: max_order 5 on SU(2) (2,002 words) and 8 on the three-torus (3,003)
_MAX_CLASS_WORDS = 4096


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class ConditionReport:
    """One checked inequality: its constant on the full and half ranges."""

    name: str
    constant: float
    half_constant: float
    growth: float
    passed: bool
    note: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "constant": self.constant,
                "half_constant": self.half_constant, "growth": self.growth,
                "passed": self.passed, "note": self.note}


@dataclass
class MultiplierReport:
    """Result of one checker run.

    ``passed`` is true iff every condition's constant is finite and its
    growth diagnostic is below ``threshold``; finite-range semantics are
    recorded in ``notes``.
    """

    model_name: str
    check: str
    range_description: str
    band: int
    kappa: int
    threshold: float
    passed: bool
    conditions: List[ConditionReport]
    extras: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    reduction: Optional["MultiplierReport"] = None

    def condition(self, name: str) -> ConditionReport:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def as_dict(self) -> dict:
        out = {"model": self.model_name, "check": self.check,
               "range": self.range_description, "band": self.band,
               "kappa": self.kappa, "threshold": self.threshold,
               "passed": self.passed,
               "conditions": [c.as_dict() for c in self.conditions],
               "extras": dict(sorted(self.extras.items())),
               "notes": list(self.notes)}
        if self.reduction is not None:
            out["reduction"] = self.reduction.as_dict()
        return out


@dataclass(frozen=True)
class SymbolClassSpec:
    """Order/type/max-order triple for graded symbol estimates."""

    order: float
    rho: float
    max_order: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.order):
            raise ValueError("order must be finite")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("type parameter rho must lie in [0, 1]")
        if self.max_order < 0:
            raise ValueError("max_order must be nonnegative")


def _growth(full: float, half: float, floor: float) -> float:
    """Full/half constant ratio with a noise floor: constants at or below
    the floor count as absent."""
    if not (math.isfinite(full) and math.isfinite(half)):
        return math.inf
    if full <= floor:
        return 1.0
    if half <= floor:
        return full / max(floor, 1e-300)
    return full / half


def _conditions(constants: Dict[str, Tuple[float, float]],
                floor: Optional[float] = None) -> List[ConditionReport]:
    """One condition per named (full, half) constant pair.  A condition
    passes when its constant is finite and its growth stays below
    ``GROWTH_THRESHOLD``; the growth's noise floor defaults to 1e-11 of
    the first constant."""
    if floor is None:
        floor = 1e-11 * max(next(iter(constants.values()))[0], 0.0)
    conds = []
    for name, (full, half) in constants.items():
        g = _growth(full, half, floor)
        conds.append(ConditionReport(
            name=name, constant=full, half_constant=half, growth=g,
            passed=bool(math.isfinite(full) and g < GROWTH_THRESHOLD)))
    return conds


def _report(model: GroupModel, check: str, band: int,
            conds: List[ConditionReport], extras: Optional[dict] = None,
            reduction: Optional[MultiplierReport] = None) -> MultiplierReport:
    """The report of one checker run: passed when every condition (and
    the reduction, if any) passed."""
    return MultiplierReport(
        model_name=model.name, check=check,
        range_description=(f"twice_spin <= {band}" if model.kind == "su2"
                           else f"|k|_inf <= {band}"),
        band=band, kappa=model.kappa, threshold=GROWTH_THRESHOLD,
        passed=(all(c.passed for c in conds)
                and (reduction is None or reduction.passed)),
        conditions=conds, extras=extras or {},
        notes=["finite-range semantics: pass means finite constants with a "
               "non-growing tail diagnostic on nested ranges"],
        reduction=reduction)


# ---------------------------------------------------------------------------
# Torus lattice tables and range plumbing
# ---------------------------------------------------------------------------

def torus_lattice_symbol(model: GroupModel, fn: Callable[..., np.ndarray],
                         band: int, pad: int) -> TorusSymbol:
    """Tabulate a vectorized symbol function over ``|k|_inf <= band + pad``.

    ``fn`` receives the ``n`` broadcastable integer coordinate axes of
    :func:`gmult.groups.label_box` and must return the symbol values
    elementwise.  The table is the symbol itself on the box, so it is exact
    through its radius.  A complex result that already fills the box becomes
    the table without a copy.
    """
    radius = band + pad
    shape = (2 * radius + 1,) * model.n
    values = np.asarray(fn(*label_box(model.n, radius)), dtype=complex)
    if values.shape != shape:
        values = np.broadcast_to(values, shape).copy()
    return TorusSymbol(model, values, exact_band=radius)


def check_range(model: GroupModel, band: int) -> None:
    """Refuse a label range with fewer than ``_MIN_LABELS_PER_DIRECTION``
    labels per direction (BandOverflowError); every checker needs that
    many for its nested half range."""
    per_direction = band + 1 if model.kind == "su2" else 2 * band + 1
    if per_direction < _MIN_LABELS_PER_DIRECTION:
        raise BandOverflowError(
            f"range too small: {per_direction} labels per direction, "
            f"need at least {_MIN_LABELS_PER_DIRECTION}")


def check_word_count(model: GroupModel, max_order: int) -> None:
    """Refuse a ``symbol-class`` ``max_order`` whose difference words of
    orders ``<= max_order``, ``C(g + max_order, max_order)`` of them for
    ``g`` first-order generators, exceed ``_MAX_CLASS_WORDS``
    (SymbolFormatError, naming the largest order the cap admits)."""
    g = len(difference_generators(model))
    words = math.comb(g + max_order, max_order)
    if words > _MAX_CLASS_WORDS:
        top = 0
        while math.comb(g + top + 1, top + 1) <= _MAX_CLASS_WORDS:
            top += 1
        raise SymbolFormatError(
            f"symbol-class max_order {max_order} needs {words} difference "
            f"words on {model.name}, past the cap {_MAX_CLASS_WORDS}; the "
            f"cap admits max_order <= {top} there")


def _nested_sups(model: GroupModel, values: np.ndarray,
                 band: int) -> Tuple[float, float]:
    """(full, half) sups of a label table through ``band`` and over its
    nested half range: twice-spins through ``(band + 1) // 2`` on SU(2),
    so that an odd band's half range reaches its middle label, and the
    central box ``|k|_inf <= band // 2`` on the torus."""
    if model.kind == "su2":
        half = values[:(band + 1) // 2 + 1]
    else:
        h = band // 2
        half = values[(slice(band - h, band + h + 1),) * model.n]
    return float(values.max()), float(half.max())


def _weighted_sups(model: GroupModel, table: np.ndarray, weight: float,
                   band: int) -> Tuple[float, float]:
    """:func:`_nested_sups` of ``<xi>^weight * table``."""
    return _nested_sups(model, bracket_powers(model, band, weight) * table, band)


def _order_constants(sym, band: int, top: int, rho: float, order: float,
                     laplace: Optional[float] = None
                     ) -> Dict[str, Tuple[float, float]]:
    """(full, half) sups of ``<xi>^{rho a - order} max_words ||D^alpha
    sigma||_op`` for every order ``a <= top``, named ``order-<a>``, and
    with a ``laplace`` weight that of ``<xi>^laplace ||A^{kappa/2}
    sigma||_op``, named ``laplace-<kappa/2>``: every table from one
    :func:`difference_sup_tables` call."""
    families: List = list(range(top + 1))
    names = [f"order-{a}" for a in families]
    weights = [rho * a - order for a in families]
    if laplace is not None:
        families.append("laplace")
        names.append(f"laplace-{sym.model.kappa // 2}")
        weights.append(laplace)
    tables = difference_sup_tables(sym, families, band)
    return {name: _weighted_sups(sym.model, table, weight, band)
            for name, table, weight in zip(names, tables, weights)}


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------

def check_mikhlin(sym, band: int) -> MultiplierReport:
    """Difference-operator conditions of every order up to kappa with weight
    equal to the order: ``||D^alpha sigma(xi)||_op <= C <xi>^{-|alpha|}``."""
    check_range(sym.model, band)
    return _report(sym.model, "mikhlin", band, _conditions(
        _order_constants(sym, band, sym.model.kappa, 1.0, 0.0)))


def check_refined(sym, band: int) -> MultiplierReport:
    """Reduced condition set: the top-order condition is carried by the
    distance-squared operator alone, ``<xi>^kappa ||A^{kappa/2} sigma||_op``,
    alongside generator words only of order <= kappa - 1."""
    model = sym.model
    check_range(model, band)
    kappa = model.kappa
    constants = _order_constants(sym, band, kappa - 1, 1.0, 0.0,
                                 laplace=float(kappa))
    report = _report(model, "refined", band, _conditions(constants))
    if report.passed:
        report.notes.append("refined conditions passed; the full difference "
                            "family at top order was not evaluated")
    return report


def check_torus3(sym, band: int) -> MultiplierReport:
    """The three-condition test specific to the three-torus, with plain
    Euclidean ``|k|`` weights:

        |sigma(k)| <= C,
        |k| |sigma(k + e_j) - sigma(k)| <= C,
        |k|^2 |sigma(k) - (1/6) sum_j (sigma(k+e_j) + sigma(k-e_j))| <= C.
    """
    model = sym.model
    if model.kind != "torus" or model.n != 3:
        raise GmultError("this check is specific to the three-torus")
    check_range(model, band)
    if sym.exact_band < band + 1:
        raise BandOverflowError(
            f"need the symbol exact through band {band + 1}, "
            f"certificate is {sym.exact_band}")
    absk = np.sqrt(sum(a.astype(float) ** 2 for a in label_box(3, band)))
    # the factors -e_j give sigma(k + e_j) - sigma(k); a running maximum
    # holds one norm table per direction at a time
    first = 0.0
    for step in model.delta0[1::2]:
        word = DifferenceWord(model, ((step, 0, 0),))
        first = np.maximum(first, apply_difference(word, sym).norms(band))
    second = absk ** 2 * laplace_difference(sym).norms(band) / 6.0
    constants = {name: _nested_sups(model, values, band)
                 for name, values in (("bounded", sym.norms(band)),
                                      ("first-difference", absk * first),
                                      ("second-difference", second))}
    floor = 1e-11 * max(float(np.abs(sym.table).max()), 0.0)
    return _report(model, "torus3", band, _conditions(constants, floor))


def _reweighted(sym, exponent: float):
    """Per-label multiplication by ``<xi>^exponent`` (certificates carry)."""
    return symbol_scale(sym, bracket_powers(sym.model, sym.support_band, exponent))


def check_symbol_class(sym, spec: SymbolClassSpec,
                       band: int) -> MultiplierReport:
    """Graded difference estimates ``||D^alpha sigma||_op <= C <xi>^{m - rho
    |alpha|}`` together with the Sobolev-loss table ``r(p) = kappa (1 - rho)
    |1/p - 1/2|`` and the reduction step: the reweighted symbol
    ``<xi>^{-m - kappa (1 - rho)} sigma`` must pass check_mikhlin."""
    model = sym.model
    check_range(model, band)
    check_word_count(model, spec.max_order)
    kappa = model.kappa
    conds = _conditions(_order_constants(sym, band, spec.max_order,
                                         spec.rho, spec.order))
    extras = {f"r({p:g})": kappa * (1.0 - spec.rho) * abs(1.0 / p - 0.5)
              for p in (1.5, 2.0, 3.0, 4.0)}
    reduction = check_mikhlin(
        _reweighted(sym, -spec.order - kappa * (1.0 - spec.rho)), band)
    return _report(model, "symbol-class", band, conds,
                   extras={"order": spec.order, "rho": spec.rho, **extras},
                   reduction=reduction)


# ---------------------------------------------------------------------------
# Empirical operator-norm probe
# ---------------------------------------------------------------------------

def _function_norm_p(samples: np.ndarray, weights: np.ndarray, p: float) -> float:
    return float(np.sum(weights * np.abs(samples) ** p) ** (1.0 / p))


def empirical_lp_ratio(sym, p: float, trials: int, band: int,
                       seed: int = 0) -> Dict[str, float]:
    """Max/median of ``||Op(sigma) f||_p / ||f||_p`` over random
    band-limited inputs, by grid quadrature.  A regression probe, not a
    bound: the statistics are seeded and reproducible."""
    if not 1.0 < p < math.inf:
        raise ValueError("p must lie in (1, infinity)")
    model = sym.model
    grid = build_grid(model, band if model.kind == "torus"
                      else max(2, (2 * band + 3) // 4 + 1))
    weights = grid.weights
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(trials):
        while True:
            f = fourier_inverse(random_symbol(model, band, rng), grid)
            nf = _function_norm_p(f.samples, weights, p)
            if nf >= 1e-12:
                break
        g = quantize_apply(sym, f)
        ratios.append(_function_norm_p(g.samples, weights, p) / nf)
    # np.median's value, without the numpy.ma it imports on first use
    ratios.sort()
    median = (ratios[(len(ratios) - 1) // 2] + ratios[len(ratios) // 2]) / 2
    return {"p": p, "trials": float(trials), "band": float(band),
            "seed": float(seed), "max": float(ratios[-1]),
            "median": float(median)}
