"""Matrix symbols, quantization, difference operators, and seminorms.

A left-invariant operator is stored through its matrix symbol, in one of two
layouts:

* SU(2): :class:`MatrixSymbol`, one complex ``(d, d)`` block per label;
* the torus: :class:`TorusSymbol`, one dense complex box over the labels
  ``|k|_inf <= R``; labels outside the box are zero.

Difference operators multiply the operator kernel by a coefficient function
vanishing at the identity.  On the torus each such factor is a character,
so a difference is an exact lattice shift and the distance-squared
(Laplace) operator a five-point-per-axis stencil: both are array slices
that zero-extend the box by the factor's band.  On SU(2) they follow the
defining recipe "inverse transform, multiply on a quadrature grid, forward
transform"; the test suite runs the same grid route on torus boxes as the
oracle for the slices.

Band bookkeeping: ``exact_band`` records through which label band the
stored entries faithfully represent the (possibly infinite) symbol being
approximated.  ``math.inf`` means the symbol *is* the stored finitely
supported object.  Every operation derates this certificate: a difference
word whose factors have total band ``w`` lowers it by ``w``, because entries
within ``w`` of a truncation edge feel the missing tail.  Checkers only ever
read labels inside the certificate.

Per-label real quantities (block norms, weights) come as label tables laid
out like :func:`gmult.groups.label_bands`.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations_with_replacement
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

import numpy as np

from .errors import BandOverflowError
from .grids import GroupFunction, GroupGrid, build_grid, rho_squared_samples
from .groups import (GroupModel, IrrepLabel, angular_momentum, bracket_powers,
                     irrep_dimension, label_band, labels_up_to,
                     validate_label)

_GRID_CACHE: Dict[Tuple[str, int, int], GroupGrid] = {}


def default_grid(model: GroupModel, band: int) -> GroupGrid:
    """Shared grid cache; grids carry memoized representation tables."""
    key = (model.kind, model.n, int(band))
    if key not in _GRID_CACHE:
        _GRID_CACHE[key] = build_grid(model, band)
    return _GRID_CACHE[key]


@dataclass
class MatrixSymbol:
    """Finitely many stored blocks of an SU(2) matrix symbol.

    ``entries`` maps twice-spin labels to ``(d, d)`` complex arrays.  See the
    module docstring for the meaning of ``exact_band``.
    """

    model: GroupModel
    entries: Dict[IrrepLabel, np.ndarray] = field(default_factory=dict)
    exact_band: float = math.inf

    def __post_init__(self) -> None:
        if self.model.kind != "su2":
            raise ValueError("torus symbols are stored as TorusSymbol boxes")
        fixed = {}
        for label, mat in self.entries.items():
            label = validate_label(self.model, label)
            d = irrep_dimension(self.model, label)
            mat = np.asarray(mat, dtype=complex)
            if mat.shape == () and d == 1:
                mat = mat.reshape(1, 1)
            if mat.shape != (d, d):
                raise ValueError(f"block for label {label} must have shape {(d, d)}")
            fixed[label] = mat
        self.entries = fixed

    @property
    def support_band(self) -> int:
        return max(self.entries, default=0)

    def get(self, label: IrrepLabel) -> np.ndarray:
        """Stored block, or a zero block if the label is absent."""
        label = validate_label(self.model, label)
        if label in self.entries:
            return self.entries[label]
        d = irrep_dimension(self.model, label)
        return np.zeros((d, d), dtype=complex)

    def restrict(self, band: int) -> "MatrixSymbol":
        kept = {lb: m.copy() for lb, m in self.entries.items() if lb <= band}
        return MatrixSymbol(self.model, kept, min(self.exact_band, band))

    def exact_labels(self, band: Optional[int] = None) -> List[IrrepLabel]:
        """Stored labels within the exactness certificate (and within band)."""
        cap = self.exact_band if band is None else min(self.exact_band, band)
        return [lb for lb in sorted(self.entries) if lb <= cap]

    def norms(self, band: int, hs: bool = False) -> np.ndarray:
        """Operator (``hs``: Hilbert-Schmidt) norm of every block through
        ``band``, as a label table."""
        norm = np.linalg.norm if hs else op_norm
        return np.array([norm(self.get(t)) for t in range(band + 1)])

    def energy(self, band: int) -> float:
        """``sum ||sigma(xi)||_HS^2`` over the labels through ``band``."""
        total = 0.0
        for t in range(band + 1):
            total += float(np.sum(np.abs(self.get(t)) ** 2))
        return total


def resize_box(table: np.ndarray, radius: int) -> np.ndarray:
    """A centred torus box cropped (a view) or zero-extended to ``radius``."""
    have = table.shape[0] // 2
    if radius <= have:
        return table[(slice(have - radius, have + radius + 1),) * table.ndim]
    return np.pad(table, radius - have)


@dataclass
class TorusSymbol:
    """A torus symbol on the dense box ``|k|_inf <= radius``.

    ``table[k_1 + radius, ..., k_n + radius]`` holds ``sigma(k)``; labels
    outside the box are zero.  ``entries`` is a read-only label ->
    ``(1, 1)`` block view of the box.  See the module docstring for the
    meaning of ``exact_band``.
    """

    model: GroupModel
    table: np.ndarray
    exact_band: float = math.inf

    def __post_init__(self) -> None:
        if self.model.kind != "torus":
            raise ValueError("a TorusSymbol needs a torus model")
        self.table = np.asarray(self.table, dtype=complex)
        side = self.table.shape[0] if self.table.ndim else 0
        if side % 2 == 0 or self.table.shape != (side,) * self.model.n:
            raise ValueError(f"a torus-{self.model.n} box must have shape "
                             f"(2R + 1,) * {self.model.n}, got {self.table.shape}")

    @property
    def radius(self) -> int:
        return self.table.shape[0] // 2

    @property
    def support_band(self) -> int:
        return self.radius

    @property
    def entries(self) -> Mapping:
        return _BoxEntries(self)

    def get(self, label: IrrepLabel) -> np.ndarray:
        """The ``(1, 1)`` block at a label (zero outside the box)."""
        k = validate_label(self.model, label)
        block = np.zeros((1, 1), dtype=complex)
        if label_band(self.model, k) <= self.radius:
            block[0, 0] = self.table[tuple(c + self.radius for c in k)]
        return block

    def scalar(self, label: IrrepLabel) -> complex:
        return complex(self.get(label)[0, 0])

    def restrict(self, band: int) -> "TorusSymbol":
        table = resize_box(self.table, min(self.radius, int(band))).copy()
        return TorusSymbol(self.model, table, min(self.exact_band, band))

    def exact_labels(self, band: Optional[int] = None) -> List[IrrepLabel]:
        """Box labels within the exactness certificate (and within band)."""
        cap = self.exact_band if band is None else min(self.exact_band, band)
        return list(labels_up_to(self.model, int(min(self.radius, cap))))

    def norms(self, band: int, hs: bool = False) -> np.ndarray:
        """``|sigma(k)|`` through ``band`` as a label table (on ``1 x 1``
        blocks the operator and Hilbert-Schmidt norms agree)."""
        return np.abs(resize_box(self.table, band))

    def energy(self, band: int) -> float:
        """``sum |sigma(k)|^2`` over the labels through ``band``."""
        return float(np.sum(np.abs(resize_box(self.table, band)) ** 2))


class _BoxEntries(Mapping):
    """Read-only label -> ``(1, 1)`` block view of a torus box."""

    def __init__(self, sym: TorusSymbol):
        self._sym = sym

    def __len__(self) -> int:
        return self._sym.table.size

    def __iter__(self) -> Iterator[IrrepLabel]:
        return labels_up_to(self._sym.model, self._sym.radius)

    def __getitem__(self, label: IrrepLabel) -> np.ndarray:
        if label_band(self._sym.model, label) > self._sym.radius:
            raise KeyError(label)
        return self._sym.get(label)


def _same_model(a, b) -> None:
    if a.model != b.model:
        raise ValueError("symbols live on different models")


def symbol_add(a, b, beta: complex = 1.0):
    """Entrywise ``a + beta * b`` on the union of supports."""
    _same_model(a, b)
    cert = min(a.exact_band, b.exact_band)
    if a.model.kind == "torus":
        r = max(a.radius, b.radius)
        return TorusSymbol(a.model, resize_box(a.table, r)
                           + beta * resize_box(b.table, r), cert)
    out = {lb: m.copy() for lb, m in a.entries.items()}
    for lb, m in b.entries.items():
        out[lb] = out.get(lb, 0.0) + beta * m
    return MatrixSymbol(a.model, out, cert)


def symbol_product(a, b):
    """Pointwise matrix product ``a(xi) b(xi)``, the symbol of the composition."""
    _same_model(a, b)
    cert = min(a.exact_band, b.exact_band)
    if a.model.kind == "torus":
        r = min(a.radius, b.radius)
        return TorusSymbol(a.model, resize_box(a.table, r)
                           * resize_box(b.table, r), cert)
    out = {lb: a.entries[lb] @ b.entries[lb] for lb in a.entries if lb in b.entries}
    return MatrixSymbol(a.model, out, cert)


def symbol_scale(a, factor):
    """``factor * a`` for a scalar factor, or labelwise for a label table
    ``factor`` through ``a.support_band``."""
    if a.model.kind == "torus":
        return TorusSymbol(a.model, factor * a.table, a.exact_band)
    f = np.broadcast_to(factor, (a.support_band + 1,))
    return MatrixSymbol(a.model, {lb: f[lb] * m for lb, m in a.entries.items()},
                        a.exact_band)


def identity_symbol(model: GroupModel, band: int):
    if model.kind == "torus":
        return TorusSymbol(model, np.ones((2 * band + 1,) * model.n), band)
    entries = {t: np.eye(t + 1, dtype=complex) for t in range(band + 1)}
    return MatrixSymbol(model, entries, exact_band=band)


def random_symbol(model: GroupModel, band: int, rng: np.random.Generator,
                  exact_band: float = math.inf):
    """Symbol through ``band`` with independent standard complex Gaussian
    entries (real parts drawn before imaginary parts)."""
    if model.kind == "torus":
        shape = (2 * band + 1,) * model.n
        return TorusSymbol(model, rng.standard_normal(shape)
                           + 1j * rng.standard_normal(shape), exact_band)
    entries = {t: rng.standard_normal((t + 1, t + 1))
               + 1j * rng.standard_normal((t + 1, t + 1))
               for t in range(band + 1)}
    return MatrixSymbol(model, entries, exact_band)


def op_norm(mat: np.ndarray) -> float:
    """Largest singular value (the operator norm used throughout)."""
    mat = np.atleast_2d(np.asarray(mat))
    if mat.shape == (1, 1):
        return abs(complex(mat[0, 0]))
    return float(np.linalg.norm(mat, 2))


# ---------------------------------------------------------------------------
# Quantization
# ---------------------------------------------------------------------------

def quantize_apply(sym, f: GroupFunction) -> GroupFunction:
    """Apply the operator with the given symbol to a sampled function.

    Computes ``sum_xi d_xi trace(xi(g) sigma(xi) fhat(xi))`` over the stored
    labels of the symbol; frequencies outside the stored support are
    annihilated (the operator is the quantization of the stored object).
    """
    from . import transform

    grid = f.grid
    cap = grid.max_label_band
    if f.declared_band is not None:
        cap = min(cap, f.declared_band)
    coeffs = transform.fourier_forward(f, band=min(cap, sym.support_band))
    return transform.fourier_inverse(symbol_product(sym, coeffs), grid)


# ---------------------------------------------------------------------------
# Vector field symbols
# ---------------------------------------------------------------------------

def vector_field_symbol(model: GroupModel, coeffs: Sequence[float],
                        band: int) -> MatrixSymbol:
    """Symbol of a left-invariant frame field ``X = sum_j a_j D_j`` on SU(2).

    The block at label ``t`` is the Lie-algebra action of ``X`` in the
    spin-``t/2`` representation, ``-i (a1 J1 + a2 J2 + a3 J3)`` (see
    :func:`gmult.groups.angular_momentum`): the derivative of
    ``xi(exp(s X))`` at ``s = 0`` in closed form.  Blocks are exactly
    skew-Hermitian, with eigenvalues ``-i |a| m``, ``m = -t/2..t/2``.
    """
    entries = {t: -1j * angular_momentum(coeffs, t) for t in range(band + 1)}
    return MatrixSymbol(model, entries, exact_band=band)


# ---------------------------------------------------------------------------
# Difference operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DifferenceWord:
    """A product of elementary difference operators.

    Each factor ``(label, i, j)`` multiplies the operator kernel by
    ``xi_label(g)_{ij} - delta_{ij}`` (0-based entry indices).  Factors
    commute, so a word is determined by its multiset of factors.
    """

    model: GroupModel
    factors: Tuple[Tuple[IrrepLabel, int, int], ...]

    @property
    def order(self) -> int:
        return len(self.factors)

    @property
    def band_sum(self) -> int:
        return sum(label_band(self.model, lb) for lb, _, _ in self.factors)

    def then(self, factor: Tuple[IrrepLabel, int, int]) -> "DifferenceWord":
        return DifferenceWord(self.model, self.factors + (factor,))

    def describe(self) -> str:
        if not self.factors:
            return "id"
        return "*".join(f"D[{lb}]({i},{j})" for lb, i, j in self.factors)


def difference_generators(model: GroupModel) -> List[DifferenceWord]:
    """Order-1 words from the first-shell representations.

    SU(2): the nine entries of the adjoint (twice_spin 2) representation.
    Torus-n: the 2n characters ``+-e_j``.
    """
    gens = []
    for lb in model.delta0:
        d = irrep_dimension(model, lb)
        for i in range(d):
            for j in range(d):
                gens.append(DifferenceWord(model, ((lb, i, j),)))
    return gens


def generator_words(model: GroupModel, order: int) -> List[DifferenceWord]:
    """All distinct words of the given order (multisets of generators)."""
    gens = difference_generators(model)
    if order == 0:
        return [DifferenceWord(model, ())]
    out = []
    for combo in combinations_with_replacement(range(len(gens)), order):
        factors = tuple(gens[i].factors[0] for i in combo)
        out.append(DifferenceWord(model, factors))
    return out


def _q_samples(grid: GroupGrid, factor: Tuple[IrrepLabel, int, int]) -> np.ndarray:
    lb, i, j = factor
    key = ("qfun", lb if isinstance(lb, int) else tuple(lb), i, j)
    if key not in grid._misc:
        vals = grid.coefficient_function(lb, i, j).copy()
        if i == j:
            vals = vals - 1.0
        grid._misc[key] = vals
    return grid._misc[key]


def _word_samples(grid: GroupGrid, word: DifferenceWord) -> np.ndarray:
    """Samples of the word's multiplier ``prod (xi_ij - delta_ij)``."""
    q = np.ones(grid.node_count, dtype=complex)
    for factor in word.factors:
        q = q * _q_samples(grid, factor)
    return q


def required_difference_band(model: GroupModel, kernel_band: int, out_band: int) -> int:
    """Smallest grid band that represents labels up to ``out_band`` and makes
    the forward transform exact there for a kernel of the given band."""
    total = kernel_band + out_band
    if model.kind == "su2":
        return max(1, (total + 3) // 4, (out_band + 1) // 2)
    return max(1, (total + 1) // 2, out_band)


def _difference_grid(sym, wband: int, out_band: int,
                     grid: Optional[GroupGrid]) -> GroupGrid:
    model = sym.model
    kernel_band = sym.support_band + wband
    needed = required_difference_band(model, kernel_band, out_band)
    if grid is None:
        return default_grid(model, needed)
    if grid.max_label_band < out_band or grid.exact_total_band < kernel_band + out_band:
        raise BandOverflowError(
            f"grid band {grid.band} too small for a difference of word band {wband} "
            f"on a symbol of support band {sym.support_band}; need band >= {needed}")
    return grid


def _grid_differences(sym, wband: int, out_band: int,
                      multipliers: Iterable[Callable[[GroupGrid], np.ndarray]],
                      grid: Optional[GroupGrid] = None) -> Iterator:
    """The quadrature route: synthesize the kernel once on a grid exact for
    the products, multiply it by each multiplier's samples (a function of
    band <= ``wband`` vanishing at the identity) and transform back through
    ``out_band``.  The SU(2) difference path; on the torus the tests run it
    as the oracle for the box slices."""
    from . import transform

    grid = _difference_grid(sym, wband, out_band, grid)
    kernel = transform.fourier_inverse(sym, grid)
    declared = min(kernel.declared_band + wband, grid.max_label_band)
    for multiplier in multipliers:
        # a named operand: numpy would reuse a temporary's buffer for the
        # product, which rounds complex products differently
        q = multiplier(grid)
        product = GroupFunction(grid, kernel.samples * q, declared)
        coeffs = transform.fourier_forward(product, band=out_band)
        coeffs.exact_band = min(sym.exact_band - wband, coeffs.exact_band)
        yield coeffs


def _box_at(step: Sequence[int], side: int, margin: int) -> Tuple[slice, ...]:
    """Where a box of the given side lands when moved by ``step`` inside
    its extension by ``margin``."""
    return tuple(slice(margin + s, margin + s + side) for s in step)


def _box_difference(table: np.ndarray, step: Sequence[int]) -> np.ndarray:
    """``sigma(k - step) - sigma(k)``, the difference with factor
    ``e^{2 pi i step.x} - 1``, on the box zero-extended by ``max|step|``."""
    margin = max(abs(s) for s in step)
    out = -np.pad(table, margin)
    out[_box_at(step, table.shape[0], margin)] += table
    return out


def _box_laplace(table: np.ndarray, shell: Sequence[Sequence[int]]) -> np.ndarray:
    """``2 n sigma(k) - sum_j (sigma(k - e_j) + sigma(k + e_j))``, the
    difference with factor ``rho^2``, on the box zero-extended by 1;
    ``shell`` lists the first-shell labels ``+-e_j``."""
    n = len(shell) // 2
    out = 2.0 * n * np.pad(table, 1)
    for step in shell:
        out[_box_at(step, table.shape[0], 1)] -= table
    return out


def apply_difference(word: DifferenceWord, sym, grid: Optional[GroupGrid] = None):
    """Apply a difference word to a symbol.

    Torus: each factor ``xi`` is the exact shift ``sigma(k - xi) - sigma(k)``
    of the box.  SU(2): the quadrature route on ``grid`` (default: a cached
    grid exact for the product).  The result's exactness certificate drops
    by the word's total factor band.
    """
    if word.model != sym.model:
        raise ValueError("word and symbol live on different models")
    if word.order == 0:
        return copy.deepcopy(sym)
    if sym.model.kind == "torus":
        table = sym.table
        for lb, _, _ in word.factors:
            table = _box_difference(table, lb)
        return TorusSymbol(sym.model, table, sym.exact_band - word.band_sum)
    wband = word.band_sum
    return next(_grid_differences(sym, wband, sym.support_band + wband,
                                  [partial(_word_samples, word=word)], grid))


def laplace_difference(sym, grid: Optional[GroupGrid] = None):
    """The second-order difference operator driven by ``rho^2``.

    Torus: ``2 n sigma(k) - sum_j (sigma(k + e_j) + sigma(k - e_j))`` on the
    box.  SU(2): the quadrature route (transform, multiply by ``rho^2``,
    transform back).  The exactness certificate drops by the band of
    ``rho^2`` (2 on SU(2), 1 on the torus).
    """
    model = sym.model
    if model.kind == "torus":
        return TorusSymbol(model, _box_laplace(sym.table, model.delta0),
                           sym.exact_band - 1)
    return next(_grid_differences(sym, 2, sym.support_band + 2,
                                  [rho_squared_samples], grid))


def laplace_decomposition_residual(sym, grid: Optional[GroupGrid] = None) -> float:
    """Residual of the first-shell decomposition of the rho^2 operator:
    ``laplace(sigma) + sum_{xi0 in delta0} sum_i xi0 D_ii sigma = 0``."""
    model = sym.model
    total = laplace_difference(sym, grid)
    for lb in model.delta0:
        d = irrep_dimension(model, lb)
        for i in range(d):
            word = DifferenceWord(model, ((lb, i, i),))
            total = symbol_add(total, apply_difference(word, sym, grid))
    return float(np.max(total.norms(total.support_band), initial=0.0))


# ---------------------------------------------------------------------------
# Leibniz rules
# ---------------------------------------------------------------------------

def _residual_norm(resid, cap: float) -> float:
    """Largest Hilbert-Schmidt block norm of ``resid`` at labels within
    ``cap``."""
    band = int(min(resid.support_band, cap))
    return float(np.max(resid.norms(band, hs=True), initial=0.0))


def _expand_product_terms(word: DifferenceWord):
    """Expand ``D^word (sigma tau)`` into ``(word_on_sigma, word_on_tau)`` pairs
    by iterating the first-order rule; returns a list of factor-tuple pairs."""
    model = word.model
    terms = [((), ())]
    for lb, i, j in word.factors:
        d = irrep_dimension(model, lb)
        new_terms = []
        for left, right in terms:
            new_terms.append((left + ((lb, i, j),), right))
            new_terms.append((left, right + ((lb, i, j),)))
            for k in range(d):
                new_terms.append((left + ((lb, k, j),), right + ((lb, i, k),)))
        terms = new_terms
    return terms


def leibniz_residual(word: DifferenceWord, sym: MatrixSymbol, tau: MatrixSymbol,
                     grid: Optional[GroupGrid] = None) -> float:
    """Max deviation (HS norm) of the product rule for a difference word.

    Order 1 checks ``D_ij(sigma tau) = (D_ij sigma) tau + sigma (D_ij tau)
    + sum_k (D_kj sigma)(D_ik tau)`` (the cross-term pairing forced by the
    convolution convention ``(phi * psi)^ = psi^ phi^``); higher orders check
    the iterated expansion of the same rule.
    """
    if word.order == 0:
        return 0.0
    prod = symbol_product(sym, tau)
    lhs = apply_difference(word, prod, grid)
    terms = _expand_product_terms(word)
    cache_s: Dict[Tuple, MatrixSymbol] = {}
    cache_t: Dict[Tuple, MatrixSymbol] = {}

    def diff_of(base: MatrixSymbol, factors, cache):
        if factors not in cache:
            cache[factors] = apply_difference(DifferenceWord(word.model, factors),
                                              base, grid)
        return cache[factors]

    rhs: Optional[MatrixSymbol] = None
    for left, right in terms:
        piece = symbol_product(diff_of(sym, left, cache_s), diff_of(tau, right, cache_t))
        rhs = piece if rhs is None else symbol_add(rhs, piece)
    return _residual_norm(symbol_add(lhs, rhs, beta=-1.0),
                          min(sym.exact_band, tau.exact_band))


def laplace_leibniz_residual(sym: MatrixSymbol, tau: MatrixSymbol,
                             grid: Optional[GroupGrid] = None) -> float:
    """Max deviation (HS norm) of the product rule for the rho^2 operator:
    ``A(sigma tau) = (A sigma) tau + sigma (A tau)
    - sum_{xi0} sum_{ij} (xi0 D_ij sigma)(xi0 D_ji tau)``."""
    model = sym.model
    prod = symbol_product(sym, tau)
    lhs = laplace_difference(prod, grid)
    rhs = symbol_add(symbol_product(laplace_difference(sym, grid), tau),
                     symbol_product(sym, laplace_difference(tau, grid)))
    for lb in model.delta0:
        d = irrep_dimension(model, lb)
        for i in range(d):
            for j in range(d):
                wij = DifferenceWord(model, ((lb, i, j),))
                wji = DifferenceWord(model, ((lb, j, i),))
                cross = symbol_product(apply_difference(wij, sym, grid),
                                       apply_difference(wji, tau, grid))
                rhs = symbol_add(rhs, cross, beta=-1.0)
    return _residual_norm(symbol_add(lhs, rhs, beta=-1.0),
                          min(sym.exact_band, tau.exact_band))


# ---------------------------------------------------------------------------
# Seminorms
# ---------------------------------------------------------------------------

def word_sup_table(sym, order: int, band: int,
                   grid: Optional[GroupGrid] = None) -> np.ndarray:
    """Label table through ``band`` of the sup over all generator words of
    the given order of ``||D^alpha sigma(xi)||_op``.  The band must lie
    within the derated exactness certificate, else BandOverflowError."""
    model = sym.model
    words = generator_words(model, order)
    wband = max(w.band_sum for w in words)
    cap = sym.exact_band - wband
    if band > cap:
        raise BandOverflowError(
            f"labels up to band {band} requested, but order-{order} "
            f"differences are only exact through band {cap}; "
            f"extend the stored symbol")
    if order == 0:
        return sym.norms(band)
    if model.kind == "torus":
        diffs = (apply_difference(word, sym) for word in words)
    else:
        # one kernel transform shared by every word
        diffs = _grid_differences(
            sym, wband, band, [partial(_word_samples, word=w) for w in words],
            grid)
    best = None
    for diff in diffs:
        norms = diff.norms(band)
        best = norms if best is None else np.maximum(best, norms)
    return best


def seminorm(sym, order: int, weight_exponent: float, band: int,
             grid: Optional[GroupGrid] = None) -> float:
    """``sup_xi <xi>^w max_words ||D^alpha sigma(xi)||_op`` over the labels
    through ``band``."""
    table = word_sup_table(sym, order, band, grid)
    return float((bracket_powers(sym.model, band, weight_exponent) * table).max())
