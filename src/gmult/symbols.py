"""Matrix symbols, quantization, difference operators, and seminorm tables.

A left-invariant operator is stored through its matrix symbol, in one of two
layouts:

* SU(2): :class:`MatrixSymbol`, one complex ``(d, d)`` block per label;
* the torus: :class:`TorusSymbol`, one dense complex box over the labels
  ``|k|_inf <= R``; labels outside the box are zero.

Difference operators multiply the operator kernel by a coefficient function
vanishing at the identity.  On the torus each such factor is a character,
so a difference is an exact lattice shift and the distance-squared
(Laplace) operator a five-point-per-axis stencil: both are array slices
that zero-extend the box by the factor's band.  On SU(2) a factor is a
sum of terms ``e^{-i s phi/2} g(theta) e^{-i s' psi/2}``, which shift the
kernel's forward phase sums by ``(s, s')``: a difference is a sum of
shifted, theta-weighted slices of one phase stage of the kernel, then a
theta quadrature against the Wigner tables.  The tests keep the recipe
"inverse transform, multiply on the grid, forward transform" as the
oracle of both routes.

Band bookkeeping: ``exact_band`` records through which label band the
stored entries faithfully represent the (possibly infinite) symbol being
approximated.  ``math.inf`` means the symbol *is* the stored finitely
supported object.  Every operation derates this certificate: a difference
word whose factors have total band ``w`` lowers it by ``w``, because entries
within ``w`` of a truncation edge feel the missing tail.  Checkers only ever
read labels inside the certificate.

Per-label real quantities (block norms, weights) come as label tables laid
out like :func:`gmult.groups.bracket_powers`.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations_with_replacement
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import BandOverflowError
from .grids import GroupFunction, GroupGrid, _required_grid_band, build_grid
from .groups import (GroupModel, IrrepLabel, angular_momentum, irrep_dimension,
                     label_band, labels_up_to, validate_label)

_GRID_CACHE: Dict[Tuple[str, int, int], GroupGrid] = {}
#: Complex entries (8 MiB) of the one word stack :func:`word_sup_table`
#: holds at once: a chunk of words of the SU(2) phase route at the
#: twice-weights of one parity.
_STACK_ENTRIES = 1 << 19
#: Relative slack on the bound ``||B||_2 <= ||B||_F`` when it prunes an
#: SVD: the two norms round differently, and a block of rank one has them
#: equal.  Far above the rounding of either, far below any gap that matters.
_FRO_SLACK = 1.0 + 1e-10


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

    def norms(self, band: int, hs: bool = False) -> np.ndarray:
        """Operator (``hs``: Hilbert-Schmidt) norm of every block through
        ``band``, as a label table."""
        out = np.zeros(band + 1)
        for t in sorted(self.entries):
            if t <= band:
                out[t] = np.linalg.norm(self.entries[t], None if hs else 2)
        return out

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

    def restrict(self, band: int) -> "TorusSymbol":
        table = resize_box(self.table, min(self.radius, int(band))).copy()
        return TorusSymbol(self.model, table, min(self.exact_band, band))

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


def _phase_weights(grid: GroupGrid, combination) -> Dict:
    """The multiplier ``sum c prod (xi^t_ij - delta_ij)`` over ``combination
    = [(c, factors)]`` in the phase domain: ``{(s, s'): g}`` stands for
    ``sum g(theta) e^{-i s phi / 2} e^{-i s' psi / 2}``, ``g`` a table at
    the theta nodes.  ``xi^t_ij`` is the term ``(2i - t, 2j - t): d^t_ij``,
    so products add the shifts."""
    out: Dict = {}
    for c, factors in combination:
        word = {(0, 0): np.full(grid.thetas.size, c)}
        for t, i, j in factors:
            q = {(2 * i - t, 2 * j - t): grid.little_d(t)[:, i, j]}
            if i == j:
                q[0, 0] = q.get((0, 0), 0.0) - 1.0
            prod: Dict = {}
            for (s1, r1), g1 in word.items():
                for (s2, r2), g2 in q.items():
                    key = (s1 + s2, r1 + r2)
                    prod[key] = prod.get(key, 0.0) + g1 * g2
            word = prod
        for key, g in word.items():
            out[key] = out.get(key, 0.0) + g
    return out


def _difference_grid(sym, wband: int, out_band: int,
                     grid: Optional[GroupGrid]) -> GroupGrid:
    """The grid of a difference of word band ``wband`` read through
    ``out_band``.  It must represent the symbol's labels, so that the
    kernel can be synthesized, and the labels up to ``out_band``, and
    integrate exactly the forward products of the kernel times the
    multiplier there.  Default: the smallest such grid, cached; a given
    ``grid`` that falls short raises BandOverflowError."""
    model = sym.model
    reach = max(sym.support_band, out_band)
    total = sym.support_band + wband + out_band
    needed = max(1, _required_grid_band(model, reach),
                 (total + 3) // 4 if model.kind == "su2" else (total + 1) // 2)
    if grid is None:
        return default_grid(model, needed)
    if grid.max_label_band < reach or grid.exact_total_band < total:
        raise BandOverflowError(
            f"grid band {grid.band} too small for a difference of word band {wband} "
            f"on a symbol of support band {sym.support_band}; need band >= {needed}")
    return grid


def _kernel_planes(sym: MatrixSymbol, wband: int, out_band: int,
                   grid: Optional[GroupGrid]):
    """Synthesize the kernel on a grid exact for its products with
    multipliers of band <= ``wband``, and its phase planes at every
    twice-weight ``|u| <= out_band + wband`` a shifted read reaches."""
    from . import transform

    grid = _difference_grid(sym, wband, out_band, grid)
    kernel = transform.fourier_inverse(sym, grid)
    return grid, transform._su2_forward_stages(grid, kernel.samples,
                                               out_band + wband)


def _shifted_sums(grid: GroupGrid, planes, weights: Sequence[Dict],
                  out_band: int, parity: int) -> np.ndarray:
    """Phase planes of the products kernel x multiplier at the
    twice-weights of one parity, stacked over the multipliers: ``sum
    g(theta_a) A[u - s, v - s', a]`` over the terms, at ``|u|, |v| <=
    out_band``.  Multiplying the samples by ``e^{-i s phi / 2}`` moves the
    forward phase sum from ``u`` to ``u - s`` node by node, so these are
    the stages of the products' forward transforms."""
    n = out_band - (out_band - parity) % 2 + 1
    stack = np.zeros((len(weights), n, n, grid.thetas.size), dtype=complex)
    for w, terms in enumerate(weights):
        for (s, r), g in terms.items():
            src = planes[(parity - s) % 2]
            k, l = (src.shape[0] - n - s) // 2, (src.shape[0] - n - r) // 2
            stack[w] += g * src[k:k + n, l:l + n]
    return np.moveaxis(stack, 0, 2)                 # (u, v, word, theta)


def _word_blocks(grid: GroupGrid, planes, weights: Sequence[Dict],
                 out_band: int):
    """``(t, blocks)`` at every label through ``out_band``: the theta
    quadrature of :func:`_shifted_sums`, even labels first, each parity's
    stack dropped before the next one is built."""
    from . import transform

    for p in (0, 1):
        stack = {p: _shifted_sums(grid, planes, weights, out_band, p)}
        yield from transform._su2_theta_sums(grid, stack,
                                             range(p, out_band + 1, 2))
        del stack


def _su2_differences(sym: MatrixSymbol, wband: int,
                     combinations: Sequence, grid: Optional[GroupGrid],
                     band: Optional[int] = None) -> List[MatrixSymbol]:
    """The SU(2) difference route: the products of one kernel with each
    multiplier (a combination for :func:`_phase_weights` of band
    ``wband``, vanishing at the identity), from one phase stage and one
    theta quadrature against the Wigner tables, at the labels through
    ``band`` (default: all, through ``support_band + wband``).  The
    certificate is the symbol's, derated by ``wband``, capped by the grid's
    exactness for the product kernel and by ``band`` when it cuts labels
    off."""
    full = sym.support_band + wband
    out_band = full if band is None else min(band, full)
    grid, planes = _kernel_planes(sym, wband, out_band, grid)
    blocks = dict(_word_blocks(grid, planes, [_phase_weights(grid, c)
                                              for c in combinations], out_band))
    cert = min(sym.exact_band - wband, grid.exact_total_band - full,
               grid.max_label_band if out_band == full else out_band)
    return [MatrixSymbol(sym.model, {t: blocks[t][w]
                                     for t in range(out_band + 1)}, cert)
            for w in range(len(combinations))]


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
    of the box.  SU(2): the phase-domain route on ``grid`` (default: a cached
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
    return _su2_differences(sym, word.band_sum, [[(1.0, word.factors)]],
                            grid)[0]


def apply_differences(words: Sequence[DifferenceWord], sym,
                      grid: Optional[GroupGrid] = None) -> List:
    """:func:`apply_difference` of each word; on SU(2) words of one total
    band share one kernel synthesis and one phase stage."""
    bands = {word.band_sum for word in words}
    if (sym.model.kind == "torus" or len(bands) != 1 or 0 in bands
            or any(word.model != sym.model for word in words)):
        return [apply_difference(word, sym, grid) for word in words]
    return _su2_differences(sym, bands.pop(),
                            [[(1.0, word.factors)] for word in words], grid)


def laplace_difference(sym, grid: Optional[GroupGrid] = None,
                       band: Optional[int] = None):
    """The second-order difference operator driven by ``rho^2``.

    Torus: ``2 n sigma(k) - sum_j (sigma(k + e_j) + sigma(k - e_j))`` on the
    box.  SU(2): the phase-domain route with ``rho^2 = 3 - trace Ad``, at
    the labels through ``band`` (default: every label the result reaches);
    the torus box is a few slices and always comes whole.  The exactness
    certificate drops by the band of ``rho^2`` (2 on SU(2), 1 on the
    torus), and on SU(2) to ``band`` when that cuts labels off.
    """
    model = sym.model
    if model.kind == "torus":
        return TorusSymbol(model, _box_laplace(sym.table, model.delta0),
                           sym.exact_band - 1)
    # rho^2 = sum_i (1 - xi0_ii) over the first shell
    rho2 = [(-1.0, ((lb, i, i),)) for lb in model.delta0
            for i in range(irrep_dimension(model, lb))]
    return _su2_differences(sym, 2, [rho2], grid, band)[0]


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


def _differences_of(sym, factor_sets, grid: Optional[GroupGrid]) -> Dict:
    """``{factors: D^factors sym}``, one :func:`apply_differences` call per
    total band, so words of one band share a kernel."""
    by_band: Dict[int, List[DifferenceWord]] = {}
    for factors in sorted(factor_sets):
        word = DifferenceWord(sym.model, factors)
        by_band.setdefault(word.band_sum, []).append(word)
    return {word.factors: diff for words in by_band.values()
            for word, diff in zip(words, apply_differences(words, sym, grid))}


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
    lhs = apply_difference(word, symbol_product(sym, tau), grid)
    terms = _expand_product_terms(word)
    on_sym = _differences_of(sym, {left for left, _ in terms}, grid)
    on_tau = _differences_of(tau, {right for _, right in terms}, grid)
    rhs: Optional[MatrixSymbol] = None
    for left, right in terms:
        piece = symbol_product(on_sym[left], on_tau[right])
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
    gens = difference_generators(model)
    transposed = [DifferenceWord(model, ((lb, j, i),))
                  for ((lb, i, j),) in (w.factors for w in gens)]
    for d_sym, d_tau in zip(apply_differences(gens, sym, grid),
                            apply_differences(transposed, tau, grid)):
        rhs = symbol_add(rhs, symbol_product(d_sym, d_tau), beta=-1.0)
    return _residual_norm(symbol_add(lhs, rhs, beta=-1.0),
                          min(sym.exact_band, tau.exact_band))


# ---------------------------------------------------------------------------
# Seminorms
# ---------------------------------------------------------------------------

def word_sup_table(sym, order: int, band: int) -> np.ndarray:
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
        return reduce(np.maximum, (apply_difference(word, sym).norms(band)
                                   for word in words))
    # one kernel phase stage shared by every word; the word stacks are
    # formed a chunk of words and a parity at a time, each label normed
    # as one stack
    grid, planes = _kernel_planes(sym, wband, band, None)
    weights = [_phase_weights(grid, [(1.0, w.factors)]) for w in words]
    step = max(1, _STACK_ENTRIES // ((band + 1) ** 2 * grid.thetas.size))
    best = np.zeros(band + 1)
    for lo in range(0, len(words), step):
        for t, blocks in _word_blocks(grid, planes, weights[lo:lo + step],
                                      band):
            best[t] = _op_norm_sup(blocks, best[t])
    return best


def _op_norm_sup(blocks: np.ndarray, floor: float) -> float:
    """``max(floor, max_k ||blocks[k]||_2)``, bit for bit, with an SVD only
    for the blocks that can raise it: one for the block of largest
    Frobenius norm, then one batch for those whose Frobenius norm still
    exceeds the best value so far (``||B||_2 <= ||B||_F``)."""
    fro = np.linalg.norm(blocks, axis=(1, 2)) * _FRO_SLACK
    top = int(fro.argmax())
    if fro[top] <= floor:
        return floor
    best = max(floor, np.linalg.norm(blocks[top], 2))
    rest = fro > best
    rest[top] = False
    if rest.any():
        best = max(best, np.linalg.norm(blocks[rest], 2, axis=(1, 2)).max())
    return best
