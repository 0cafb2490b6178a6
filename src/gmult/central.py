"""Central (scalar) multiplier machinery on SU(2).

A central symbol assigns to each label a scalar multiple of the identity; it
corresponds to a conjugation-invariant convolution kernel, i.e. a class
function.  Class functions live on the conjugacy-angle circle, so this module
carries a one-dimensional quadrature engine for them: the conjugation-
invariant integral of a class function F is

    integral_G F dg = (1/pi) * int_0^{2pi} F(s) sin^2(s/2) ds,

where ``s`` is the class angle (the fundamental representation has trace
``2 cos(s/2)``).  Characters are evaluated through the stable three-term
recurrence ``chi_{t+1} = 2 cos(s/2) chi_t - chi_{t-1}`` (Chebyshev kind II).

Lattice conventions: labels are twice-spin integers ``t``; the weight lattice
extends them to all integers with the reflection ``t' = -2 - t``.  Scalar
sequences extend evenly (``s_{t'} = s_t``) while dimensions and characters
extend oddly (``d_{t'} = -d_t``, ``chi_{t'} = -chi_t``); the wall ``t = -1``
carries ``d = 0`` and ``chi = 0``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from .errors import GmultError
from .groups import GroupModel, casimir_lambda, japanese_bracket, su2_model
from .symbols import MatrixSymbol, vector_field_symbol


# ---------------------------------------------------------------------------
# Weight lattice
# ---------------------------------------------------------------------------

def weyl_dimension(w) -> int:
    """Signed dimension on the extended lattice: ``t + 1``.

    Dominant labels give the honest dimension; the reflection
    ``t' = -2 - t`` flips the sign, and the wall ``t = -1`` gives 0.
    """
    return int(w) + 1


def weyl_character(w, angle) -> np.ndarray:
    """Character value(s) at class angle(s), on the extended lattice.

    For dominant ``t``: ``chi_t(s) = sin((t+1)s/2) / sin(s/2)`` with the
    singular angles filled by continuity (the last row of
    :func:`character_table`, whose recurrence has no singularities).
    Extended labels follow the signed reflection.
    """
    t = int(w)
    s = np.asarray(angle, dtype=float)
    if t == -1:
        return np.zeros_like(s)
    if t < -1:
        return -weyl_character(-2 - t, s)
    return character_table(t, s.reshape(-1))[t].reshape(s.shape)[()]


def character_table(tmax: int, angles: np.ndarray) -> np.ndarray:
    """``(tmax+1, len(angles))`` table of characters chi_0..chi_tmax."""
    x = 2.0 * np.cos(0.5 * np.asarray(angles, dtype=float))
    out = np.empty((tmax + 1, x.size), dtype=float)
    out[0] = 1.0
    if tmax >= 1:
        out[1] = x
    for t in range(2, tmax + 1):
        out[t] = x * out[t - 1] - out[t - 2]
    return out


# ---------------------------------------------------------------------------
# Class-function quadrature
# ---------------------------------------------------------------------------

@dataclass
class ClassGrid:
    """Uniform class-angle grid exact for bounded-degree character products.

    Nodes ``s_j = 4 pi j / N`` with weights ``(2/N) sin^2(s_j/2)`` integrate
    any product of characters whose total label sum stays below ``N - 4``.
    """

    angles: np.ndarray
    weights: np.ndarray
    _chi: Dict[int, np.ndarray] = field(default_factory=dict, repr=False)

    @property
    def size(self) -> int:
        return self.angles.size

    def characters(self, tmax: int) -> np.ndarray:
        if tmax not in self._chi:
            self._chi[tmax] = character_table(tmax, self.angles)
        return self._chi[tmax]

    def integrate(self, values: np.ndarray) -> complex:
        return complex(np.sum(self.weights * values))


def class_grid(total_band: int) -> ClassGrid:
    """Grid exact for class functions of total character band ``total_band``."""
    n = 2 * total_band + 16
    s = 4.0 * math.pi * np.arange(n) / n
    w = (2.0 / n) * np.sin(0.5 * s) ** 2
    return ClassGrid(s, w)


def class_rho_squared(angles: np.ndarray) -> np.ndarray:
    """Distance squared as a function of the class angle: ``2 - 2 cos s``."""
    return 2.0 - 2.0 * np.cos(np.asarray(angles, dtype=float))


# ---------------------------------------------------------------------------
# Central sequences
# ---------------------------------------------------------------------------

class CentralSequence:
    """Scalar values indexed by twice-spin, with Weyl-even extension.

    ``values`` is a 1-D array over labels ``0..B`` or a dict from labels to
    values; a dict may also give the wall value at ``-1``.  Either way the
    sequence is held as one array ``table`` over ``0..B`` plus ``wall``.
    ``zero_beyond`` declares the sequence finitely supported: labels past
    ``B``, labels a dict leaves out and a missing wall read as zero.
    Without it a dict must give every label ``0..B``, and reading past
    ``B`` or a missing wall is an error.
    """

    def __init__(self, model: GroupModel, values=(),
                 zero_beyond: bool = False) -> None:
        if model.kind != "su2":
            raise ValueError("central sequences are implemented on su2")
        self.model, self.wall, self.zero_beyond = model, None, zero_beyond
        if isinstance(values, Mapping):
            given = {int(t): complex(v) for t, v in values.items()}
            if any(t < -1 for t in given):
                raise ValueError("store values at twice_spin >= -1; lower "
                                 "labels follow by reflection")
            self.wall = given.pop(-1, None)
            values = np.zeros(max(given, default=-1) + 1, dtype=complex)
            if not self.zero_beyond and len(given) < values.size:
                raise ValueError("without zero_beyond every label 0..B needs "
                                 "a value")
            values[list(given)] = list(given.values())
        self.table = np.array(values, dtype=complex).reshape(-1)

    @property
    def support_band(self) -> int:
        return max(self.table.size - 1, 0)

    def value(self, t: int) -> complex:
        """Evenly extended value; missing labels are 0 only if zero_beyond."""
        t = int(t)
        if t < -1:
            t = -2 - t
        if t == -1 and self.wall is not None:
            return self.wall
        if 0 <= t < self.table.size:
            return complex(self.table[t])
        if self.zero_beyond:
            return 0.0
        raise KeyError(f"central sequence has no value at twice_spin {t}")

    def as_symbol(self, band: Optional[int] = None) -> MatrixSymbol:
        """``sigma(t) = s_t I`` through the given band."""
        band = self.support_band if band is None else int(band)
        entries = {t: self.value(t) * np.eye(t + 1, dtype=complex)
                   for t in range(band + 1)}
        cert = math.inf if (self.zero_beyond and band >= self.support_band) \
            else float(band)
        return MatrixSymbol(self.model, entries, exact_band=cert)


def delta2(seq: CentralSequence) -> CentralSequence:
    """Root-shift second difference realizing the distance-squared operator
    on central symbols: with ``tau_t = d_t s_t`` (odd-extended, so
    ``tau_{-1} = 0`` and ``tau_{-2} = -tau_0``),

        d_t * out_t = 2 tau_t - tau_{t-2} - tau_{t+2}.

    Labels ``0..B+2`` for a finitely supported input, else ``0..B-2``;
    agrees with ``laplace_difference`` applied to ``as_symbol`` there.
    """
    s = seq.table
    top = seq.support_band + 2 if seq.zero_beyond else max(s.size - 3, -1)
    tau = np.zeros(top + 5, dtype=complex)  # labels -2 .. top+2
    tau[2:s.size + 2] = np.arange(1, s.size + 1) * s
    tau[0] = -tau[2]
    num = 2.0 * tau[2:top + 3] - tau[:top + 1] - tau[4:top + 5]
    # part by part, as scalar complex-by-real division rounds
    d = np.arange(1.0, top + 2.0)
    out = num.real / d + 1j * (num.imag / d)
    return CentralSequence(seq.model, out, zero_beyond=seq.zero_beyond)


def laplace_central(seq: CentralSequence) -> CentralSequence:
    """Distance-squared operator on a central sequence by class-function
    quadrature: transform to the kernel ``sum_t d_t s_t chi_t``, multiply by
    ``rho^2`` on the class circle, expand back in characters, through the
    band ``B + 2`` the product reaches."""
    if not seq.zero_beyond:
        raise GmultError("quadrature route needs a finitely supported sequence")
    sup = seq.support_band
    out_band = sup + 2
    grid = class_grid(sup + out_band + 6)
    chi = grid.characters(out_band)
    size = seq.table.size
    kernel = (np.arange(1, size + 1) * seq.table) @ chi[:size]
    kernel = kernel * class_rho_squared(grid.angles)
    out = [grid.integrate(kernel * chi[t]) / weyl_dimension(t)
           for t in range(out_band + 1)]
    return CentralSequence(seq.model, out, zero_beyond=True)


def nweiss_delta(seq: CentralSequence) -> CentralSequence:
    """One-step lattice difference via the Weyl-vector shift multiplier.

    The input is read as a lattice sequence ``u`` (the dimension-weighted
    convention), its kernel ``sum_t u_t chi_t`` is multiplied by
    ``gamma(s) = 2 cos(s/2) - 2`` — the orbit sum of the Weyl vector minus
    the Weyl group order — and re-expanded.  The result equals
    ``u_{t-1} + u_{t+1} - 2 u_t`` with ``u_{-1}`` read as 0 (the wall label
    carries no kernel mass); in particular the signed dimension sequence is
    annihilated identically.
    """
    if not seq.zero_beyond:
        raise GmultError("quadrature route needs a finitely supported sequence")
    sup = seq.support_band
    out_band = sup + 1
    grid = class_grid(sup + out_band + 6)
    chi = grid.characters(max(sup, out_band))
    kernel = seq.table @ chi[:seq.table.size]
    gamma = 2.0 * np.cos(0.5 * grid.angles) - 2.0
    kernel = kernel * gamma
    out = [grid.integrate(kernel * chi[t]) for t in range(out_band + 1)]
    return CentralSequence(seq.model, out, zero_beyond=True)


def dimension_sequence(band: int) -> CentralSequence:
    """The signed dimension sequence through the given band (wall included)."""
    vals = {t: complex(weyl_dimension(t)) for t in range(-1, band + 1)}
    return CentralSequence(su2_model(), vals, zero_beyond=True)


# ---------------------------------------------------------------------------
# Character orthogonality
# ---------------------------------------------------------------------------

def character_inner(ta: int, tb: int) -> complex:
    """Quadrature value of ``integral chi_a conj(chi_b)`` on extended labels:
    1 for equal labels, -1 for a signed reflection pair, else 0."""
    grid = class_grid(abs(ta) + abs(tb) + 8)
    return grid.integrate(weyl_character(ta, grid.angles)
                          * np.conj(weyl_character(tb, grid.angles)))


# ---------------------------------------------------------------------------
# Hypoellipticity of the dimension sequence
# ---------------------------------------------------------------------------

def hypoellipticity_ratio(order: int, band: int) -> Dict[str, float]:
    """Report on ``<xi>^k |Delta_k d| / d`` over labels ``t <= band``.

    Also reports the polynomial bound constant ``sup d / <xi>`` (single
    positive root, so the exponent is one) and a half/full growth ratio.
    """
    if order < 1 or band < 4:
        raise ValueError("need order >= 1 and band >= 4")
    model = su2_model()
    t = np.arange(band + 1 + order)
    d = (t + 1).astype(float)
    diff = np.diff(d, order)
    brackets = np.array([japanese_bracket(model, int(x)) for x in t[: band + 1]])
    ratios = brackets ** order * np.abs(diff[: band + 1]) / d[: band + 1]
    half = ratios[: band // 2 + 1]
    full_c = float(ratios.max())
    half_c = float(half.max())
    growth = 1.0 if full_c <= 1e-300 else (math.inf if half_c <= 1e-300
                                           else full_c / half_c)
    poly = float((d[: band + 1] / brackets).max())
    return {"order": float(order), "band": float(band), "max_ratio": full_c,
            "growth": growth, "poly_bound_constant": poly}


# ---------------------------------------------------------------------------
# Symbol builders
# ---------------------------------------------------------------------------

def riesz_symbol(model: GroupModel, coeffs: Sequence[float], band: int) -> MatrixSymbol:
    """Symbol of the Riesz transform of a normalized frame field: the field
    symbol divided per label by the square root of the Laplacian eigenvalue,
    zero at the trivial label.  Operator norms are <= 1."""
    a = np.asarray(coeffs, dtype=float)
    if abs(float(np.linalg.norm(a)) - 1.0) > 1e-9:
        raise ValueError("field coefficients must have unit norm")
    base = vector_field_symbol(model, a, band)
    entries = {}
    for lb, mat in base.entries.items():
        lam = casimir_lambda(model, lb)
        if lam == 0.0:
            entries[lb] = np.zeros_like(mat)
        else:
            entries[lb] = mat / lam
    return MatrixSymbol(model, entries, exact_band=band)


def function_of_laplacian(f: Callable[[float], complex], band: int) -> CentralSequence:
    """Central sequence ``s_t = f(lambda_t^2)`` with the Laplacian eigenvalue
    ``lambda_t^2 = (t/2)(t/2 + 1)``.  The caller supplies the value at the
    trivial label through ``f(0)`` (singular functions must patch it)."""
    vals = [complex(f((t / 2.0) * (t / 2.0 + 1.0))) for t in range(band + 1)]
    return CentralSequence(su2_model(), vals, zero_beyond=False)
