"""Boundedness checkers for multiplier symbols.

Each checker evaluates a family of difference-operator seminorms on a finite
label range and reports per-condition constants.  "Pass" means every required
constant is finite and a growth diagnostic — the ratio of the constant on the
full range to the constant on the nested half range — stays below a
threshold; this is the honest finite-range rendering of an all-label bound,
and reports say so.

Torus symbols at large band are handled through a dense lattice table with
pure slicing shifts (no wraparound): each applied difference shrinks the
valid box by the factor's band, so constants read off the table are exact.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import BandOverflowError, GmultError
from .groups import GroupModel, japanese_bracket, label_band, labels_up_to
from .grids import GroupGrid, build_grid
from .symbols import (MatrixSymbol, generator_words, laplace_difference,
                      op_norm, quantize_apply, word_sup_table)
from .transform import fourier_inverse

GROWTH_THRESHOLD = 1.25
_MIN_LABELS_PER_DIRECTION = 8


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


def _finish(conds: List[ConditionReport]) -> bool:
    return all(c.passed for c in conds)


def _range_note() -> str:
    return ("finite-range semantics: pass means finite constants with a "
            "non-growing tail diagnostic on nested ranges")


# ---------------------------------------------------------------------------
# Dense torus lattice tables
# ---------------------------------------------------------------------------

@dataclass
class TorusLatticeSymbol:
    """Scalar torus symbol tabulated on the box ``|k|_inf <= radius``.

    The table is exact (it is the symbol, not a truncation), so differences
    computed by shifting stay exact on the shrunken box.
    """

    model: GroupModel
    radius: int
    table: np.ndarray

    def __post_init__(self) -> None:
        if self.model.kind != "torus":
            raise ValueError("lattice tables are a torus structure")
        want = (2 * self.radius + 1,) * self.model.n
        if self.table.shape != want:
            raise ValueError(f"table shape {self.table.shape} != {want}")


def torus_lattice_symbol(model: GroupModel, fn: Callable[..., np.ndarray],
                         band: int, pad: int) -> TorusLatticeSymbol:
    """Tabulate a vectorized symbol function over ``|k|_inf <= band + pad``.

    ``fn`` receives ``n`` integer coordinate arrays (broadcast over the box)
    and must return the symbol values elementwise.
    """
    radius = band + pad
    axes = np.meshgrid(*([np.arange(-radius, radius + 1)] * model.n),
                       indexing="ij")
    values = np.asarray(fn(*axes), dtype=complex)
    values = np.broadcast_to(values, axes[0].shape).copy()
    return TorusLatticeSymbol(model, radius, values)


def _box_shrink(table: np.ndarray, margin: int) -> np.ndarray:
    if margin == 0:
        return table
    sl = tuple(slice(margin, s - margin) for s in table.shape)
    return table[sl]


def _box_shift(table: np.ndarray, step: Sequence[int]) -> np.ndarray:
    """View of ``sigma(k - step)`` on the box shrunk by ``max|step| = 1``."""
    sl = []
    for s, size in zip(step, table.shape):
        lo = 1 - s
        sl.append(slice(lo, size - 1 - s))
    return table[tuple(sl)]


def _dense_shift_difference(table: np.ndarray, step: Sequence[int]) -> np.ndarray:
    """One shell difference ``sigma(k - step) - sigma(k)`` on the shrunk box."""
    return _box_shift(table, step) - _box_shrink(table, 1)


def _dense_word_sup(sym: TorusLatticeSymbol, order: int) -> Tuple[np.ndarray, int]:
    """Max over generator words of order ``order`` of ``|D^alpha sigma|``,
    on the box of radius ``radius - order``; returns (array, radius)."""
    if order == 0:
        return np.abs(sym.table), sym.radius
    words = generator_words(sym.model, order)
    best: Optional[np.ndarray] = None
    for word in words:
        cur = sym.table
        for (lb, _i, _j) in word.factors:
            cur = _dense_shift_difference(cur, lb)
        mag = np.abs(cur)
        best = mag if best is None else np.maximum(best, mag)
    return best, sym.radius - order


def _dense_weights(model: GroupModel, radius: int, exponent: float) -> np.ndarray:
    axes = np.meshgrid(*([np.arange(-radius, radius + 1)] * model.n),
                       indexing="ij")
    lam = 2.0 * math.pi * np.sqrt(sum(a.astype(float) ** 2 for a in axes))
    return np.maximum(1.0, lam) ** exponent


def _dense_masked_sup(values: np.ndarray, radius: int, within: int) -> float:
    if within > radius:
        raise BandOverflowError(
            f"range band {within} exceeds the exact box radius {radius}; "
            f"tabulate the symbol with more padding")
    return float(_box_shrink(values, radius - within).max()) if values.size else 0.0


def _dense_laplace(table: np.ndarray, n: int) -> np.ndarray:
    out = 2.0 * n * _box_shrink(table, 1)
    for j in range(n):
        for sign in (1, -1):
            step = [0] * n
            step[j] = sign
            out = out - _box_shift(table, step)
    return out


# ---------------------------------------------------------------------------
# Range plumbing
# ---------------------------------------------------------------------------

def _check_range(model: GroupModel, band: int) -> None:
    per_direction = band + 1 if model.kind == "su2" else 2 * band + 1
    if per_direction < _MIN_LABELS_PER_DIRECTION:
        raise BandOverflowError(
            f"range too small: {per_direction} labels per direction, "
            f"need at least {_MIN_LABELS_PER_DIRECTION}")


def _range_description(model: GroupModel, band: int) -> str:
    if model.kind == "su2":
        return f"twice_spin <= {band}"
    return f"|k|_inf <= {band}"


def _sparse_order_constants(sym: MatrixSymbol, order: int, weight: float,
                            band: int, grid: Optional[GroupGrid]) -> Tuple[float, float]:
    """(full, half) weighted sups over nested label ranges from one table."""
    labels = list(labels_up_to(sym.model, band))
    table = word_sup_table(sym, order, labels, grid)
    full = 0.0
    half = 0.0
    for lb, val in table.items():
        w = japanese_bracket(sym.model, lb) ** weight * val
        full = max(full, w)
        if label_band(sym.model, lb) <= band // 2:
            half = max(half, w)
    return full, half


def _dense_order_constants(sym: TorusLatticeSymbol, order: int, weight: float,
                           band: int) -> Tuple[float, float]:
    mags, radius = _dense_word_sup(sym, order)
    weighted = _dense_weights(sym.model, radius, weight) * mags
    return (_dense_masked_sup(weighted, radius, band),
            _dense_masked_sup(weighted, radius, band // 2))


SymbolLike = Union[MatrixSymbol, TorusLatticeSymbol]


def _order_constants(sym: SymbolLike, order: int, weight: float, band: int,
                     grid: Optional[GroupGrid]) -> Tuple[float, float]:
    if isinstance(sym, TorusLatticeSymbol):
        return _dense_order_constants(sym, order, weight, band)
    return _sparse_order_constants(sym, order, weight, band, grid)


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------

def check_mikhlin(sym: SymbolLike, band: int, kappa: Optional[int] = None,
                  grid: Optional[GroupGrid] = None,
                  threshold: float = GROWTH_THRESHOLD) -> MultiplierReport:
    """Difference-operator conditions of every order up to kappa with weight
    equal to the order: ``||D^alpha sigma(xi)||_op <= C <xi>^{-|alpha|}``."""
    model = sym.model
    _check_range(model, band)
    kappa = model.kappa if kappa is None else int(kappa)
    pairs = [_order_constants(sym, a, float(a), band, grid)
             for a in range(kappa + 1)]
    floor = 1e-11 * max(pairs[0][0], 0.0)
    conds = []
    for a, (full, half) in enumerate(pairs):
        g = _growth(full, half, floor)
        conds.append(ConditionReport(
            name=f"order-{a}", constant=full, half_constant=half, growth=g,
            passed=bool(math.isfinite(full) and g < threshold)))
    return MultiplierReport(
        model_name=model.name, check="mikhlin",
        range_description=_range_description(model, band), band=band,
        kappa=kappa, threshold=threshold, passed=_finish(conds),
        conditions=conds, notes=[_range_note()])


def _laplace_power_constants(sym: SymbolLike, power: int, weight: float,
                             band: int, grid: Optional[GroupGrid]) -> Tuple[float, float]:
    """(full, half) sups of ``<xi>^weight ||A^power sigma(xi)||_op``."""
    if isinstance(sym, TorusLatticeSymbol):
        cur = sym.table
        for _ in range(power):
            cur = _dense_laplace(cur, sym.model.n)
        radius = sym.radius - power
        weighted = _dense_weights(sym.model, radius, weight) * np.abs(cur)
        return (_dense_masked_sup(weighted, radius, band),
                _dense_masked_sup(weighted, radius, band // 2))
    cur = sym
    for _ in range(power):
        cur = laplace_difference(cur, grid)
    full = 0.0
    half = 0.0
    for lb in list(labels_up_to(sym.model, band)):
        if label_band(sym.model, lb) > cur.exact_band:
            raise BandOverflowError(
                f"label band {label_band(sym.model, lb)} beyond the laplace "
                f"certificate {cur.exact_band}; extend the stored symbol")
        w = japanese_bracket(sym.model, lb) ** weight * op_norm(cur.get(lb))
        full = max(full, w)
        if label_band(sym.model, lb) <= band // 2:
            half = max(half, w)
    return full, half


def check_refined(sym: SymbolLike, band: int,
                  grid: Optional[GroupGrid] = None,
                  threshold: float = GROWTH_THRESHOLD) -> MultiplierReport:
    """Reduced condition set: the top-order condition is carried by the
    distance-squared operator alone, ``<xi>^kappa ||A^{kappa/2} sigma||_op``,
    alongside generator words only of order <= kappa - 1."""
    model = sym.model
    _check_range(model, band)
    kappa = model.kappa
    pairs = [_order_constants(sym, a, float(a), band, grid)
             for a in range(kappa)]
    floor = 1e-11 * max(pairs[0][0], 0.0)
    conds = []
    for a, (full, half) in enumerate(pairs):
        g = _growth(full, half, floor)
        conds.append(ConditionReport(
            name=f"order-{a}", constant=full, half_constant=half, growth=g,
            passed=bool(math.isfinite(full) and g < threshold)))
    top_full, top_half = _laplace_power_constants(sym, kappa // 2,
                                                  float(kappa), band, grid)
    g = _growth(top_full, top_half, floor)
    conds.append(ConditionReport(
        name=f"laplace-{kappa // 2}", constant=top_full, half_constant=top_half,
        growth=g, passed=bool(math.isfinite(top_full) and g < threshold)))
    passed = _finish(conds)
    notes = [_range_note()]
    if passed:
        notes.append("refined conditions passed; the full difference family "
                     "at top order was not evaluated")
    return MultiplierReport(
        model_name=model.name, check="refined",
        range_description=_range_description(model, band), band=band,
        kappa=kappa, threshold=threshold, passed=passed,
        conditions=conds, notes=notes)


def check_torus3(sym: SymbolLike, band: int,
                 threshold: float = GROWTH_THRESHOLD) -> MultiplierReport:
    """The three-condition test specific to the three-torus, with plain
    Euclidean ``|k|`` weights:

        |sigma(k)| <= C,
        |k| |sigma(k + e_j) - sigma(k)| <= C,
        |k|^2 |sigma(k) - (1/6) sum_j (sigma(k+e_j) + sigma(k-e_j))| <= C.
    """
    model = sym.model
    if model.kind != "torus" or model.n != 3:
        raise GmultError("this check is specific to the three-torus")
    _check_range(model, band)
    if isinstance(sym, MatrixSymbol):
        if sym.exact_band < band + 1:
            raise BandOverflowError(
                f"need the symbol exact through band {band + 1}, "
                f"certificate is {sym.exact_band}")
        radius = band + 1
        axes = np.meshgrid(*([np.arange(-radius, radius + 1)] * 3), indexing="ij")
        table = np.empty(axes[0].shape, dtype=complex)
        it = np.nditer(axes[0], flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            k = tuple(int(a[idx]) for a in axes)
            table[idx] = complex(sym.get(k)[0, 0])
        sym = TorusLatticeSymbol(model, radius, table)

    radius = sym.radius
    axes = np.meshgrid(*([np.arange(-radius, radius + 1)] * 3), indexing="ij")
    absk = np.sqrt(sum(a.astype(float) ** 2 for a in axes))

    mag0 = np.abs(sym.table)
    first = None
    for j in range(3):
        step = [0] * 3
        step[j] = -1          # sigma(k + e_j) - sigma(k)
        diff = np.abs(_dense_shift_difference(sym.table, step))
        first = diff if first is None else np.maximum(first, diff)
    first = _box_shrink(absk, 1) * first
    second = (_box_shrink(absk, 1) ** 2) * np.abs(_dense_laplace(sym.table, 3)) / 6.0

    floor = 1e-11 * max(float(mag0.max()), 0.0)
    conds = []
    for name, values, rad in (("bounded", mag0, radius),
                              ("first-difference", first, radius - 1),
                              ("second-difference", second, radius - 1)):
        full = _dense_masked_sup(values, rad, band)
        half = _dense_masked_sup(values, rad, band // 2)
        g = _growth(full, half, floor)
        conds.append(ConditionReport(
            name=name, constant=full, half_constant=half, growth=g,
            passed=bool(math.isfinite(full) and g < threshold)))
    return MultiplierReport(
        model_name=model.name, check="torus3",
        range_description=_range_description(model, band), band=band,
        kappa=model.kappa, threshold=threshold, passed=_finish(conds),
        conditions=conds, notes=[_range_note()])


def _reweighted(sym: SymbolLike, exponent: float) -> SymbolLike:
    """Per-label multiplication by ``<xi>^exponent`` (certificates carry)."""
    if isinstance(sym, TorusLatticeSymbol):
        w = _dense_weights(sym.model, sym.radius, exponent)
        return TorusLatticeSymbol(sym.model, sym.radius, sym.table * w)
    entries = {lb: mat * japanese_bracket(sym.model, lb) ** exponent
               for lb, mat in sym.entries.items()}
    return MatrixSymbol(sym.model, entries, exact_band=sym.exact_band)


def check_symbol_class(sym: SymbolLike, spec: SymbolClassSpec, band: int,
                       grid: Optional[GroupGrid] = None,
                       threshold: float = GROWTH_THRESHOLD) -> MultiplierReport:
    """Graded difference estimates ``||D^alpha sigma||_op <= C <xi>^{m - rho
    |alpha|}`` together with the Sobolev-loss table ``r(p) = kappa (1 - rho)
    |1/p - 1/2|`` and the reduction step: the reweighted symbol
    ``<xi>^{-m - kappa (1 - rho)} sigma`` must pass check_mikhlin."""
    model = sym.model
    _check_range(model, band)
    kappa = model.kappa
    pairs = [_order_constants(sym, a, spec.rho * a - spec.order, band, grid)
             for a in range(spec.max_order + 1)]
    floor = 1e-11 * max(pairs[0][0], 0.0)
    conds = []
    for a, (full, half) in enumerate(pairs):
        g = _growth(full, half, floor)
        conds.append(ConditionReport(
            name=f"order-{a}", constant=full, half_constant=half, growth=g,
            passed=bool(math.isfinite(full) and g < threshold)))
    extras = {f"r({p:g})": kappa * (1.0 - spec.rho) * abs(1.0 / p - 0.5)
              for p in (1.5, 2.0, 3.0, 4.0)}
    reduction = check_mikhlin(
        _reweighted(sym, -spec.order - kappa * (1.0 - spec.rho)),
        band, kappa=kappa, grid=grid, threshold=threshold)
    passed = _finish(conds) and reduction.passed
    return MultiplierReport(
        model_name=model.name, check="symbol-class",
        range_description=_range_description(model, band), band=band,
        kappa=kappa, threshold=threshold, passed=passed, conditions=conds,
        extras={"order": spec.order, "rho": spec.rho, **extras},
        notes=[_range_note()], reduction=reduction)


# ---------------------------------------------------------------------------
# Empirical operator-norm probe
# ---------------------------------------------------------------------------

def _function_norm_p(samples: np.ndarray, weights: np.ndarray, p: float) -> float:
    return float(np.sum(weights * np.abs(samples) ** p) ** (1.0 / p))


def empirical_lp_ratio(sym: MatrixSymbol, p: float, trials: int, band: int,
                       seed: int = 0,
                       grid: Optional[GroupGrid] = None) -> Dict[str, float]:
    """Max/median of ``||Op(sigma) f||_p / ||f||_p`` over random
    band-limited inputs, by grid quadrature.  A regression probe, not a
    bound: the statistics are seeded and reproducible."""
    if not 1.0 < p < math.inf:
        raise ValueError("p must lie in (1, infinity)")
    model = sym.model
    if grid is None:
        grid = build_grid(model, band if model.kind == "torus"
                          else max(2, (2 * band + 3) // 4 + 1))
    rng = np.random.default_rng(seed)
    labels = list(labels_up_to(model, band))
    ratios = []
    for _ in range(trials):
        while True:
            entries = {}
            for lb in labels:
                d = 1 if model.kind == "torus" else lb + 1
                entries[lb] = (rng.standard_normal((d, d))
                               + 1j * rng.standard_normal((d, d)))
            f = fourier_inverse(MatrixSymbol(model, entries, exact_band=math.inf),
                                grid)
            nf = _function_norm_p(f.samples, grid.weights, p)
            if nf >= 1e-12:
                break
        g = quantize_apply(sym, f)
        ratios.append(_function_norm_p(g.samples, grid.weights, p) / nf)
    return {"p": p, "trials": float(trials), "band": float(band),
            "seed": float(seed), "max": float(max(ratios)),
            "median": float(statistics.median(ratios))}
