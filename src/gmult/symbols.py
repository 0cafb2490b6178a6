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
kernel's forward phase sums by ``(s, s')``.  On a grid that resolves the
kernel those sums are its label stage, the blocks against the Wigner
tables, built here with no sampling.  The words' blocks then come one
label at a time: per shift, one GEMM of the words' theta weights against
the shifted slice of that stage times the label's theta quadrature
against its Wigner table.  The route builds the smallest grid exact for
the products itself; no difference takes a grid.  The tests
keep the recipe "inverse transform, multiply on a grid, forward
transform" as the oracle of both routes.

Band bookkeeping: ``exact_band`` records through which label band the
stored entries faithfully represent the (possibly infinite) symbol being
approximated.  ``math.inf`` means the symbol *is* the stored finitely
supported object.  Every operation derates this certificate: a difference
word whose factors have total band ``w`` lowers it by ``w``, because entries
within ``w`` of a truncation edge feel the missing tail; an SU(2)
difference read through ``out_band`` certifies at most that band.
Checkers only ever read labels inside the certificate.

Per-label real quantities (block norms, weights) come as label tables laid
out like :func:`gmult.groups.bracket_powers`.
"""

from __future__ import annotations

import copy
import math
from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations_with_replacement
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import BandOverflowError
from .grids import GroupFunction, GroupGrid, build_grid
from .grids import build_grid as default_grid  # the acceptance suite's name
from .groups import (GroupModel, IrrepLabel, angular_momentum, irrep_dimension,
                     label_band, labels_up_to, validate_label)

#: Relative slack on the bounds ``||B||_2 <= ||B||_F`` and ``||B||_2^2 <=
#: ||B^H B||_inf`` when they prune an SVD: the norms round differently, and
#: a block of rank one (unitary, for the Gram bound) has them equal.  Far
#: above the rounding of either, far below any gap that matters.
_FRO_SLACK = 1.0 + 1e-10


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


def _phase_weights(grid: GroupGrid, table, combination) -> Dict:
    """The multiplier ``sum c prod (xi^t_ij - delta_ij)`` over ``combination
    = [(c, factors)]`` in the phase domain: ``{(s, s'): g}`` stands for
    ``sum g(theta) e^{-i s phi / 2} e^{-i s' psi / 2}``, ``g`` a table at
    the theta nodes.  ``xi^t_ij`` is the term ``(2i - t, 2j - t): d^t_ij``,
    so products add the shifts; ``table(t)`` gives ``d^t`` at the nodes."""
    out: Dict = defaultdict(float)
    for c, factors in combination:
        word = {(0, 0): np.full(grid.thetas.size, c)}
        for t, i, j in factors:
            q = {(2 * i - t, 2 * j - t): table(t)[:, i, j]}
            if i == j:
                q[0, 0] = q.get((0, 0), 0.0) - 1.0
            prod: Dict = defaultdict(float)
            for (s1, r1), g1 in word.items():
                for (s2, r2), g2 in q.items():
                    prod[s1 + s2, r1 + r2] += g1 * g2
            word = prod
        for key, g in word.items():
            out[key] += g
    return out


def _rows(top: int, t: int, shift: int = 0) -> slice:
    """Rows of the twice-weights ``-t - shift, .., t - shift`` in an axis
    of the twice-weights ``-top, -top + 2, .., top``."""
    return slice((top - t - shift) // 2, (top + t - shift) // 2 + 1)


def _kernel_planes(sym: MatrixSymbol, wband: int, out_band: int,
                   combinations: Sequence = ()):
    """The kernel setup of the SU(2) difference route, for multipliers of
    band <= ``wband`` read through ``out_band``.  The grid is the smallest
    that represents the symbol's labels and those through ``out_band`` and
    integrates exactly the kernel's products with the multipliers there;
    it resolves the kernel, so the kernel's forward phase planes are its
    label stage against the little-d tables, built with no sampling:
    ``P[a, u, v] = sum_t (t + 1) d^t_{mn}(theta_a) sigma_t[n, m]`` at the
    twice-weights ``u = 2m - t``, ``v = 2n - t``, one plane ``(theta, u,
    v)`` per parity of ``u`` and ``v``, each through its largest
    twice-weight ``<= out_band + wband`` (the reach of a shifted read;
    higher labels add their middle rows).  Returns the grid, the
    little-d tables read here through ``out_band`` (``{t: table}``; one
    past ``out_band`` is dropped after its read), the planes and the
    :func:`_phase_weights` of each combination."""
    reach = max(sym.support_band, out_band)
    total = sym.support_band + wband + out_band
    grid = build_grid(sym.model, max(1, (reach + 1) // 2, (total + 3) // 4))
    tables: Dict = {}

    def table(t: int) -> np.ndarray:
        d = tables[t] if t in tables else grid.little_d(t)
        if t <= out_band:
            tables[t] = d
        return d

    tops = [out_band + wband - (out_band + wband - p) % 2 for p in (0, 1)]
    planes = [np.zeros((grid.thetas.size, top + 1, top + 1), dtype=complex)
              for top in tops]
    for t, mat in sym.entries.items():
        top = tops[t % 2]
        at, keep = _rows(top, min(t, top)), _rows(t, min(t, top))
        planes[t % 2][:, at, at] += (t + 1) * (table(t)[:, keep, keep]
                                               * mat.T[keep, keep])
    return grid, tables, planes, [_phase_weights(grid, table, c)
                                  for c in combinations]


def _label_blocks(sym: MatrixSymbol, wband: int, out_band: int,
                  combinations: Sequence):
    """``(t, blocks)`` at every label through ``out_band``: ``blocks[w]`` is
    the product of the kernel with multiplier ``w`` (a combination for
    :func:`_phase_weights` of band ``wband``) at label ``t``.  Multiplying
    the samples by ``e^{-i s phi / 2} e^{-i s' psi / 2}`` moves the forward
    phase sums from ``(u, v)`` to ``(u - s, v - s')`` node by node, so per
    shift a label is one GEMM of the theta weights of the multipliers that
    carry it against the shifted slice of the kernel's planes times the
    theta quadrature ``table(t) w/2``.  One label's stack is built at a
    time, and each little-d table is dropped once its label has formed
    that quadrature."""
    grid, tables, planes, weights = _kernel_planes(sym, wband, out_band,
                                                   combinations)
    carriers: Dict = defaultdict(list)
    for w, terms in enumerate(weights):
        for key, g in terms.items():
            carriers[key].append((w, g))
    # per shift: the multipliers carrying it and their theta weights
    shifts = [(s, r, [w for w, _ in ws], np.array([g for _, g in ws]))
              for (s, r), ws in carriers.items()]
    w2 = grid.theta_weights / 2.0
    for t in range(out_band + 1):
        quad = ((tables.pop(t) if t in tables else grid.little_d(t))
                * w2[:, None, None])                        # (theta, n, m)
        blocks = np.zeros((len(weights), t + 1, t + 1), dtype=complex)
        for s, r, ws, g in shifts:
            src = planes[(t - s) % 2]
            top = src.shape[1] - 1
            shifted = (src[:, _rows(top, t, s), _rows(top, t, r)]
                       * quad).reshape(w2.size, -1)
            # real weights (every word's) take a real GEMM on the
            # interleaved parts: half the flops of a complex one
            prod = ((g @ shifted.view(float)).view(complex)
                    if g.dtype == float else g @ shifted)
            blocks[ws] += prod.reshape(len(ws), t + 1, t + 1)
        yield t, blocks.transpose(0, 2, 1)


def _su2_differences(sym: MatrixSymbol, wband: int, combinations: Sequence
                     ) -> List[MatrixSymbol]:
    """The SU(2) difference route: the products of one kernel with each
    multiplier (a combination for :func:`_phase_weights` of band
    ``wband``, vanishing at the identity), from one label stage and one
    theta quadrature against the Wigner tables, at every label through
    ``out_band = support_band + wband``.  The certificate is
    ``min(exact_band - wband, out_band)``: the symbol's, derated by
    ``wband``, and no further than the labels computed."""
    out_band = sym.support_band + wband
    blocks = dict(_label_blocks(sym, wband, out_band, combinations))
    cert = min(sym.exact_band - wband, out_band)
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


def apply_differences(words: Sequence[DifferenceWord], sym) -> List:
    """Apply each difference word to a symbol.

    Torus: each factor ``xi`` is the exact shift ``sigma(k - xi) -
    sigma(k)`` of the box.  SU(2): the words of one total band share one
    label stage of the kernel, on the smallest grid exact for the products.
    A word of order 0 returns a copy of the symbol.  Each result's
    exactness certificate drops by its word's total factor band (on SU(2)
    also to the labels computed, see :func:`_su2_differences`).
    """
    if any(word.model != sym.model for word in words):
        raise ValueError("word and symbol live on different models")
    out: List = [None] * len(words)
    by_band: Dict[int, List[int]] = defaultdict(list)
    for k, word in enumerate(words):
        if word.order == 0:
            out[k] = copy.deepcopy(sym)
        elif sym.model.kind == "torus":
            table = reduce(_box_difference, (lb for lb, _, _ in word.factors),
                           sym.table)
            out[k] = TorusSymbol(sym.model, table,
                                 sym.exact_band - word.band_sum)
        else:
            by_band[word.band_sum].append(k)
    for wband, ks in by_band.items():
        diffs = _su2_differences(sym, wband,
                                 [[(1.0, words[k].factors)] for k in ks])
        for k, diff in zip(ks, diffs):
            out[k] = diff
    return out


def apply_difference(word: DifferenceWord, sym):
    """:func:`apply_differences` of one word."""
    return apply_differences([word], sym)[0]


def laplace_difference(sym, grid=None):
    """The second-order difference operator driven by ``rho^2``.

    Torus: ``2 n sigma(k) - sum_j (sigma(k + e_j) + sigma(k - e_j))`` on the
    box.  SU(2): the phase-domain route with ``rho^2 = 3 - trace Ad``, at
    every label the result reaches (a checker reads its norms through a
    band from :func:`difference_sup_tables` instead).  The exactness
    certificate drops by the band of ``rho^2`` (2 on SU(2), 1 on the
    torus).  ``grid`` is accepted and ignored: the route builds the
    smallest exact grid.
    """
    model = sym.model
    if model.kind == "torus":
        return TorusSymbol(model, _box_laplace(sym.table, model.delta0),
                           sym.exact_band - 1)
    return _su2_differences(sym, 2, [_rho2(model)])[0]


def _rho2(model: GroupModel) -> List:
    """``rho^2 = sum_i (1 - xi0_ii)`` over the SU(2) first shell, as a
    combination for :func:`_phase_weights` of band 2."""
    return [(-1.0, ((lb, i, i),)) for lb in model.delta0
            for i in range(irrep_dimension(model, lb))]


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
                     grid=None) -> float:
    """Max deviation (HS norm) of the product rule for a difference word.

    Order 1 checks ``D_ij(sigma tau) = (D_ij sigma) tau + sigma (D_ij tau)
    + sum_k (D_kj sigma)(D_ik tau)`` (the cross-term pairing forced by the
    convolution convention ``(phi * psi)^ = psi^ phi^``); higher orders check
    the iterated expansion of the same rule.  ``grid`` is accepted and
    ignored.
    """
    if word.order == 0:
        return 0.0
    lhs = apply_difference(word, symbol_product(sym, tau))
    terms = _expand_product_terms(word)
    # {factors: D^factors}, one apply_differences call per side
    on_sym, on_tau = (
        dict(zip(keys, apply_differences(
            [DifferenceWord(word.model, k) for k in keys], side)))
        for keys, side in ((sorted({left for left, _ in terms}), sym),
                           (sorted({right for _, right in terms}), tau)))
    rhs: Optional[MatrixSymbol] = None
    for left, right in terms:
        piece = symbol_product(on_sym[left], on_tau[right])
        rhs = piece if rhs is None else symbol_add(rhs, piece)
    return _residual_norm(symbol_add(lhs, rhs, beta=-1.0),
                          min(sym.exact_band, tau.exact_band))


def laplace_leibniz_residual(sym: MatrixSymbol, tau: MatrixSymbol,
                             grid=None) -> float:
    """Max deviation (HS norm) of the product rule for the rho^2 operator:
    ``A(sigma tau) = (A sigma) tau + sigma (A tau)
    - sum_{xi0} sum_{ij} (xi0 D_ij sigma)(xi0 D_ji tau)``.  ``grid`` is
    accepted and ignored."""
    model = sym.model
    prod = symbol_product(sym, tau)
    lhs = laplace_difference(prod)
    rhs = symbol_add(symbol_product(laplace_difference(sym), tau),
                     symbol_product(sym, laplace_difference(tau)))
    gens = difference_generators(model)
    transposed = [DifferenceWord(model, ((lb, j, i),))
                  for ((lb, i, j),) in (w.factors for w in gens)]
    for d_sym, d_tau in zip(apply_differences(gens, sym),
                            apply_differences(transposed, tau)):
        rhs = symbol_add(rhs, symbol_product(d_sym, d_tau), beta=-1.0)
    return _residual_norm(symbol_add(lhs, rhs, beta=-1.0),
                          min(sym.exact_band, tau.exact_band))


# ---------------------------------------------------------------------------
# Seminorms
# ---------------------------------------------------------------------------

def word_sup_table(sym, order: int, band: int) -> np.ndarray:
    """Label table through ``band`` of the sup over all generator words of
    the given order of ``||D^alpha sigma(xi)||_op``: the one-family call
    of :func:`difference_sup_tables`."""
    return difference_sup_tables(sym, [order], band)[0]


def difference_sup_tables(sym, families: Sequence, band: int
                          ) -> List[np.ndarray]:
    """One label table through ``band`` per family: for an order ``a``,
    the sup over all generator words of that order of ``||D^alpha
    sigma(xi)||_op``; for ``"laplace"``, ``||A^{kappa/2} sigma(xi)||_op``
    with ``A`` the ``rho^2`` difference of :func:`laplace_difference`.
    The band must lie within every family's derated exactness
    certificate, else BandOverflowError.

    Torus: each word and each ``A`` is a box slice.  SU(2) (``kappa =
    2``, so the Laplace family is ``rho^2`` itself): every word and
    ``rho^2`` of the families is one combination of a single
    :func:`_label_blocks` walk on the grid of the widest family, and each
    label's stack is normed family by family."""
    model = sym.model
    su2 = model.kind == "su2"
    out: List = [None] * len(families)
    walked = []                     # (family index, band, combinations)
    for k, family in enumerate(families):
        if family == "laplace":
            if su2:      # the labels rho^2 reaches, as laplace_difference
                cert = min(sym.exact_band - 2, sym.support_band + 2)
                walked.append((k, 2, [_rho2(model)]))
            else:
                lap = sym
                for _ in range(model.kappa // 2):
                    lap = laplace_difference(lap)
                cert, out[k] = lap.exact_band, lap.norms(band)
            if band > cert:
                raise BandOverflowError(
                    f"label band {band} beyond the laplace certificate "
                    f"{int(cert)}; extend the stored symbol")
            continue
        words = generator_words(model, family)
        wband = max(w.band_sum for w in words)
        cap = sym.exact_band - wband
        if band > cap:
            raise BandOverflowError(
                f"labels up to band {band} requested, but order-{family} "
                f"differences are only exact through band {int(cap)}; "
                f"extend the stored symbol")
        if family == 0:
            out[k] = sym.norms(band)
        elif not su2:
            out[k] = reduce(np.maximum, (apply_difference(word, sym).norms(band)
                                         for word in words))
        else:
            walked.append((k, wband, [[(1.0, w.factors)] for w in words]))
    if walked:
        edges = np.cumsum([0] + [len(cs) for _, _, cs in walked])
        sups = [[] for _ in walked]
        for _, blocks in _label_blocks(sym, max(w for _, w, _ in walked), band,
                                       [c for _, _, cs in walked for c in cs]):
            for sup, lo, hi in zip(sups, edges[:-1], edges[1:]):
                sup.append(_op_norm_sup(blocks[lo:hi]))
        for (k, _, _), sup in zip(walked, sups):
            out[k] = np.array(sup)
    return out


def _op_norm_sup(blocks: np.ndarray) -> float:
    """``max_k ||blocks[k]||_2``, bit for bit, with an SVD only for the
    blocks that can raise it: one for the block of largest bound, then one
    batch for those whose bound exceeds its norm.  The bound is
    ``min(||B||_F, sqrt(max_i sum_j |(B^H B)_ij|))``: the infinity norm of
    the Hermitian Gram matrix bounds its spectral radius ``||B||_2^2``."""
    gram = np.abs(blocks.conj().transpose(0, 2, 1) @ blocks).sum(axis=2)
    bound = np.minimum(np.linalg.norm(blocks, axis=(1, 2)),
                       np.sqrt(gram.max(axis=1))) * _FRO_SLACK
    top = int(bound.argmax())
    best = np.linalg.norm(blocks[top], 2)
    rest = bound > best
    rest[top] = False
    if rest.any():
        best = max(best, np.linalg.norm(blocks[rest], 2, axis=(1, 2)).max())
    return best
