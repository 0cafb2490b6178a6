"""Central (scalar) multiplier machinery on SU(2).

A central symbol assigns to each label a scalar multiple of the identity; it
corresponds to a conjugation-invariant convolution kernel, i.e. a class
function.  Class functions live on the conjugacy-angle circle: the
conjugation-invariant integral of a class function F is

    integral_G F dg = (1/pi) * int_0^{2pi} F(s) sin^2(s/2) ds,

where ``s`` is the class angle (the fundamental representation has trace
``2 cos(s/2)``).  With ``theta = s/2`` Weyl's character formula reads
``chi_t sin(theta) = sin((t+1) theta)``, so a class function times
``sin(theta)`` is a sine series and the class integral of a product of two
is ``(2/pi) int_0^pi`` of their sine series.  The class routes evaluate a
sine series at the uniform nodes ``theta_j = 2 pi j / n`` with one inverse
real FFT (`_sine_values`) and read sine coefficients back with one real FFT
(`_sine_coefficients`); both are exact below degree ``n/2``.

Lattice conventions: labels are twice-spin integers ``t``; the weight lattice
extends them to all integers with the reflection ``t' = -2 - t``.  Scalar
sequences extend evenly (``s_{t'} = s_t``) while dimensions and characters
extend oddly (``d_{t'} = -d_t``, ``chi_{t'} = -chi_t``, the oddness of the
sine); the wall ``t = -1`` carries ``d = 0`` and ``chi = 0``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from .errors import GmultError
from .groups import GroupModel, casimir_lambda, japanese_bracket, su2_model
from .symbols import MatrixSymbol, vector_field_symbol


# ---------------------------------------------------------------------------
# Sine series on the class circle
# ---------------------------------------------------------------------------

def _sine_values(a: np.ndarray, n: int, derivative=False) -> np.ndarray:
    """``sum_k a_k sin(k theta)`` over ``k = 1..a.size`` (or its derivative
    in ``theta``) at the nodes ``theta_j = 2 pi j / n``, for real ``a`` with
    ``a.size < n/2``: one inverse real FFT."""
    spectrum = np.zeros(n // 2 + 1, dtype=complex)
    spectrum[1:a.size + 1] = (np.arange(1.0, a.size + 1.0) * a if derivative
                              else -1j * a)
    return np.fft.irfft(spectrum, n) * (0.5 * n)


def _sine_coefficients(values: np.ndarray, top: int) -> np.ndarray:
    """Coefficients ``b_1..b_top`` of an odd real trigonometric polynomial
    of degree below ``n/2`` from its values at the ``n`` nodes: ``b_k =
    (2/n) sum_j f(theta_j) sin(k theta_j)``, one real FFT."""
    return np.fft.rfft(values)[1:top + 1].imag * (-2.0 / values.size)


def _class_product(a: np.ndarray, factor: Callable, top: int) -> np.ndarray:
    """Sine coefficients ``1..top`` of ``factor(theta) sum_k a_k sin(k
    theta)``, real and imaginary parts of ``a`` apart; for a product of
    degree at most ``top`` the rule of ``n = 2 (top + 2)`` nodes is exact."""
    n = 2 * (top + 2)
    weight = factor((2.0 * math.pi / n) * np.arange(n))

    def part(x: np.ndarray) -> np.ndarray:
        return _sine_coefficients(_sine_values(x, n) * weight, top)

    return part(a.real) + 1j * part(a.imag)


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
    quadrature: the kernel ``sum_t d_t s_t chi_t`` times ``sin(theta)`` is
    ``N = sum_t d_t s_t sin((t+1) theta)``, and ``d_t out_t`` is the
    ``(t+1)``-th sine coefficient of ``N rho^2 = N 4 sin^2(theta)``,
    through the band ``B + 2`` the product reaches."""
    if not seq.zero_beyond:
        raise GmultError("quadrature route needs a finitely supported sequence")
    d = np.arange(1.0, seq.table.size + 1.0)
    out = _class_product(d * seq.table, lambda th: 4.0 * np.sin(th) ** 2,
                         seq.support_band + 3)
    d = np.arange(1.0, out.size + 1.0)
    return CentralSequence(seq.model, out.real / d + 1j * (out.imag / d),
                           zero_beyond=True)


def nweiss_delta(seq: CentralSequence) -> CentralSequence:
    """One-step lattice difference via the Weyl-vector shift multiplier.

    The input is read as a lattice sequence ``u`` (the dimension-weighted
    convention), its kernel ``sum_t u_t chi_t`` is multiplied by
    ``gamma = 2 cos(theta) - 2`` — the orbit sum of the Weyl vector minus
    the Weyl group order — and re-expanded: ``out_t`` is the ``(t+1)``-th
    sine coefficient of ``gamma sum_t u_t sin((t+1) theta)``.  The result
    equals ``u_{t-1} + u_{t+1} - 2 u_t`` with ``u_{-1}`` read as 0 (the
    wall label carries no kernel mass); in particular the signed dimension
    sequence is annihilated identically.
    """
    if not seq.zero_beyond:
        raise GmultError("quadrature route needs a finitely supported sequence")
    out = _class_product(seq.table, lambda th: 2.0 * np.cos(th) - 2.0,
                         seq.support_band + 2)
    return CentralSequence(seq.model, out, zero_beyond=True)


def dimension_sequence(band: int) -> CentralSequence:
    """The signed dimension sequence through the given band (wall included)."""
    vals = {t: complex(t + 1) for t in range(-1, band + 1)}
    return CentralSequence(su2_model(), vals, zero_beyond=True)


def character_inner(ta: int, tb: int) -> complex:
    """Quadrature value of ``integral chi_a conj(chi_b)`` on extended labels:
    1 for equal labels, -1 for a signed reflection pair, else 0.  It is
    ``(2/n) sum_j sin((a+1) theta_j) sin((b+1) theta_j)``, exact for ``n >
    |a+1| + |b+1|``; the sine's oddness carries the signed labels."""
    ka, kb = int(ta) + 1, int(tb) + 1
    n = 2 * (max(abs(ka), abs(kb)) + 2)
    a, b = np.zeros(abs(ka)), np.zeros(abs(kb))
    a[-1:], b[-1:] = np.sign(ka), np.sign(kb)  # nothing at the wall k = 0
    return complex(2.0 / n * np.dot(_sine_values(a, n), _sine_values(b, n)))


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
    full_c = float(ratios.max())
    half_c = float(ratios[: band // 2 + 1].max())
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
