"""Inverse symbols of perturbed frame fields on SU(2).

A real left-invariant field X has a skew-hermitian symbol, so each block
diagonalizes unitarily.  Rotate the fundamental representation into the
eigenbasis of the fundamental block: the four first-order differences built
from its coefficients act on the field symbol as constants ``tau_ij`` that
vanish off the diagonal and sum to zero on it (the constants are scalar
multiples of the identity, so no per-label basis change is needed on the
symbol side).  That turns inversion of ``X + c`` into scalar arithmetic per
eigenvalue and yields a closed-form expression for the diagonal differences
of the inverse symbol, checked here against an independent quadrature route.

The inverse symbol is not band-limited; a truncation stored through band B
still certifies labels <= B because every difference word is lattice-local
(a factor of band w only couples labels at distance <= w).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import ExceptionalValueError, GmultError
from .groups import GroupModel, su2_exp_point, wigner_matrix
from .grids import GroupGrid
from .symbols import (DifferenceWord, MatrixSymbol, apply_difference,
                      vector_field_symbol)
from .checkers import MultiplierReport, SymbolClassSpec, check_symbol_class

_SPECTRAL_MARGIN = 1e-8


@dataclass
class VectorFieldSpec:
    """A frame field on SU(2) with its per-label diagonalization data.

    ``unitaries[t]`` columns are eigenvectors of the symbol block at label
    ``t`` ordered so the eigenvalues (stored in ``eigenvalues[t]``) have
    ascending imaginary part; ``tau`` is the 2x2 derivative table of the
    rotated fundamental representation at the identity.
    """

    model: GroupModel
    coeffs: np.ndarray
    band: int
    symbol: MatrixSymbol
    unitaries: Dict[int, np.ndarray] = field(repr=False, default_factory=dict)
    eigenvalues: Dict[int, np.ndarray] = field(repr=False, default_factory=dict)
    tau: np.ndarray = field(default_factory=lambda: np.zeros((2, 2), complex))
    derivative_sign: int = 1

    @property
    def field_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def tau_diagonal(self) -> np.ndarray:
        return np.diagonal(self.tau).copy()


def _fundamental_derivative(coeffs: np.ndarray, V1: np.ndarray,
                            step: float = 1e-4) -> np.ndarray:
    """Derivative at the identity of the rotated fundamental representation
    along the field, by a centered five-point stencil."""

    def rotated(s: float) -> np.ndarray:
        U = wigner_matrix(1, su2_exp_point(coeffs, s))
        return V1.conj().T @ U @ V1

    acc = (8.0 * (rotated(step) - rotated(-step))
           - (rotated(2 * step) - rotated(-2 * step))) / (12.0 * step)
    return acc


def build_field(model: GroupModel, coeffs, band: int,
                tol: float = _SPECTRAL_MARGIN) -> VectorFieldSpec:
    """Diagonalize the symbol of a nonzero real frame field through ``band``.

    Validates the structural invariants: each rotated block is diagonal
    within ``tol``, the tau table is diagonal, and its trace vanishes.
    """
    if model.kind != "su2":
        raise GmultError("vector-field inversion is implemented on su2")
    a = np.asarray(coeffs, dtype=float)
    if a.shape != (3,):
        raise ValueError("expected three real frame coefficients")
    if np.linalg.norm(a) < 1e-12:
        raise ValueError("the zero field has no inverse theory")
    sym = vector_field_symbol(model, a, band)
    unitaries: Dict[int, np.ndarray] = {}
    eigenvalues: Dict[int, np.ndarray] = {}
    for t in range(band + 1):
        block = sym.entries[t]
        herm = 1j * block
        herm = 0.5 * (herm + herm.conj().T)
        w, V = np.linalg.eigh(herm)
        # symbol eigenvalue is -i w; ascending imaginary part = descending w
        V = V[:, ::-1]
        vals = -1j * w[::-1]
        resid = np.abs(V.conj().T @ block @ V - np.diag(vals)).max()
        if resid > tol:
            raise GmultError(f"diagonalization residual {resid:.2e} at label {t}")
        unitaries[t] = V
        eigenvalues[t] = vals
    tau = _measure_tau(model, sym, unitaries[1])
    off = max(abs(tau[0, 1]), abs(tau[1, 0]))
    if off > tol or abs(tau[0, 0] + tau[1, 1]) > tol:
        raise GmultError("difference table failed its structural invariants")
    tau = np.diag(np.diagonal(tau))
    deriv = np.diagonal(_fundamental_derivative(a, unitaries[1]))
    if np.abs(np.diagonal(tau) - deriv).max() < 1e-6:
        sign = 1
    elif np.abs(np.diagonal(tau) + deriv).max() < 1e-6:
        sign = -1
    else:
        raise GmultError("difference constants do not match the derivative "
                         "of the rotated fundamental representation")
    return VectorFieldSpec(model=model, coeffs=a, band=band, symbol=sym,
                           unitaries=unitaries, eigenvalues=eigenvalues,
                           tau=tau, derivative_sign=sign)


def exceptional_set(spec: VectorFieldSpec, bound: float) -> List[complex]:
    """All parameters inside the closed disk of the given radius at which
    some block of the shifted-field symbol becomes singular: integer
    multiples of ``i |X| / 2``."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    half = 0.5 * spec.field_norm
    qmax = int(math.floor(bound / half + 1e-12))
    return [1j * half * q for q in range(-qmax, qmax + 1)]


def _nearest_eigenvalue(spec: VectorFieldSpec, c: complex,
                        band: int) -> Tuple[float, int, complex]:
    """(distance, label, eigenvalue) of the spectral point closest to -c
    among blocks through ``band``."""
    best = (math.inf, -1, 0j)
    A = spec.field_norm
    for t in range(band + 1):
        # block eigenvalues are -i A m, m = -t/2 .. t/2
        for twice_m in range(-t, t + 1, 2):
            ev = -0.5j * A * twice_m
            dist = abs(ev + c)
            if dist < best[0]:
                best = (dist, t, ev)
    return best


def invert_vf_symbol(spec: VectorFieldSpec, c: complex,
                     band: Optional[int] = None,
                     margin: float = _SPECTRAL_MARGIN) -> MatrixSymbol:
    """Per-label inverse of the shifted-field symbol, assembled through the
    eigenbases.  Refuses parameters within ``margin`` of the spectrum."""
    band = spec.band if band is None else int(band)
    if band > spec.band:
        raise GmultError("field was built through a smaller band; rebuild it")
    dist, bad_label, bad_ev = _nearest_eigenvalue(spec, c, band)
    if dist < margin:
        raise ExceptionalValueError(
            f"parameter {c} is within {dist:.2e} of eigenvalue {bad_ev} "
            f"at label {bad_label}; the shifted field is not invertible")
    entries = {}
    for t in range(band + 1):
        V = spec.unitaries[t]
        inv_diag = 1.0 / (spec.eigenvalues[t] + c)
        entries[t] = (V * inv_diag[None, :]) @ V.conj().T
    return MatrixSymbol(spec.model, entries, exact_band=band)


def rotated_symbol(spec: VectorFieldSpec, sym: MatrixSymbol) -> MatrixSymbol:
    """Conjugate each block into the field's eigenbases."""
    entries = {}
    for t, mat in sym.entries.items():
        V = spec.unitaries[t]
        entries[t] = V.conj().T @ mat @ V
    return MatrixSymbol(spec.model, entries, exact_band=sym.exact_band)


def _rotated_difference(model: GroupModel, sym: MatrixSymbol, V1: np.ndarray,
                        i: int, j: int,
                        grid: Optional[GroupGrid] = None) -> MatrixSymbol:
    """First-order difference whose factor is the ``(i, j)`` coefficient of
    the eigenbasis-rotated fundamental representation, applied to a symbol
    kept in the original frame basis.

    The rotated coefficient is a fixed linear combination of the plain
    fundamental coefficients, so the operator expands over the four plain
    first-order differences.
    """
    pieces = []
    for a in range(2):
        for b in range(2):
            coef = complex(np.conj(V1[a, i]) * V1[b, j])
            if abs(coef) < 1e-15:
                continue
            word = DifferenceWord(model, ((1, a, b),))
            pieces.append((coef, apply_difference(word, sym, grid)))
    entries: Dict[int, np.ndarray] = {}
    for coef, piece in pieces:
        for lb, mat in piece.entries.items():
            if lb in entries:
                entries[lb] = entries[lb] + coef * mat
            else:
                entries[lb] = coef * mat
    cert = min(piece.exact_band for _, piece in pieces)
    return MatrixSymbol(model, entries, exact_band=cert)


def fundamental_difference(spec: VectorFieldSpec, sym: MatrixSymbol,
                           i: int, j: int,
                           grid: Optional[GroupGrid] = None) -> MatrixSymbol:
    """Difference with the field's rotated fundamental coefficient as factor."""
    return _rotated_difference(spec.model, sym, spec.unitaries[1], i, j, grid)


def _measure_tau(model: GroupModel, sym: MatrixSymbol, V1: np.ndarray,
                 labels: Optional[List[int]] = None) -> np.ndarray:
    """Measure the constants ``tau_ij``: apply each rotated fundamental
    difference to the (band-restricted) field symbol and verify every block
    is that constant times the identity."""
    small = sym.restrict(min(sym.support_band, 5))
    if labels is None:
        labels = list(range(min(4, small.support_band - 1) + 1))
    out = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            diff = _rotated_difference(model, small, V1, i, j)
            consts = []
            for t in labels:
                mat = diff.get(t)
                s = complex(np.trace(mat)) / (t + 1)
                if np.abs(mat - s * np.eye(t + 1)).max() > 1e-7:
                    raise GmultError(
                        f"difference of the field symbol is not scalar at "
                        f"label {t} (entry {i}{j})")
                consts.append(s)
            spread = np.abs(np.diff(np.array(consts))).max() if len(consts) > 1 else 0.0
            if spread > 1e-7:
                raise GmultError(f"difference constant varies across labels "
                                 f"(entry {i}{j})")
            out[i, j] = consts[0]
    return out


def field_difference_table(spec: VectorFieldSpec) -> np.ndarray:
    """Quadrature re-measurement of the ``tau`` table from the stored field."""
    return _measure_tau(spec.model, spec.symbol, spec.unitaries[1])


def recursion_residual(spec: VectorFieldSpec, c: complex, j: int,
                       band: int,
                       grid: Optional[GroupGrid] = None) -> Dict[str, float]:
    """Residual of the closed-form expression for the diagonal differences
    of the inverse symbol, with the difference side computed by quadrature:

        D_jj inv + tau_jj * (sigma + c)^{-1} (sigma + (c + tau_jj))^{-1} = 0.

    Also measures the off-diagonal differences, which must vanish.  Returns
    max Hilbert-Schmidt norms over labels <= band.
    """
    if j not in (0, 1):
        raise ValueError("j indexes the 2x2 fundamental block: 0 or 1")
    tau_jj = spec.tau[j, j]
    for shift, tag in ((c, "c"), (c + tau_jj, "c + tau_jj")):
        dist, bad_label, bad_ev = _nearest_eigenvalue(spec, shift, band + 1)
        if dist < _SPECTRAL_MARGIN:
            raise ExceptionalValueError(
                f"{tag} = {shift} is within {dist:.2e} of eigenvalue "
                f"{bad_ev} at label {bad_label}")
    if band + 1 > spec.band:
        raise GmultError("rebuild the field through at least band + 1")
    inv = invert_vf_symbol(spec, c, band + 1)
    diag_resid = 0.0
    off_resid = 0.0
    for i in range(2):
        for jj in range(2):
            diff = fundamental_difference(spec, inv, i, jj, grid)
            for t in range(band + 1):
                got = diff.get(t)
                if i == jj:
                    if jj != j:
                        continue
                    lam = spec.eigenvalues[t]
                    V = spec.unitaries[t]
                    scalars = -tau_jj / ((lam + c) * (lam + c + tau_jj))
                    predicted = (V * scalars[None, :]) @ V.conj().T
                    diag_resid = max(diag_resid,
                                     float(np.linalg.norm(got - predicted)))
                else:
                    off_resid = max(off_resid, float(np.linalg.norm(got)))
    return {"residual": diag_resid, "offdiagonal": off_resid,
            "band": float(band), "tau": tau_jj}


def verify_s00(spec: VectorFieldSpec, c: complex, band: int,
               grid: Optional[GroupGrid] = None) -> MultiplierReport:
    """Graded check that the inverse symbol sits at order 0, type 0: all
    difference words up to the model's kappa stay bounded with no decay
    claimed.  The report's Sobolev-loss table gives the order
    ``kappa |1/p - 1/2|`` required at each sample p."""
    kappa = spec.model.kappa
    stored = band + 2 * kappa
    if stored > spec.band:
        raise GmultError(
            f"rebuild the field through band {stored} for this range")
    inv = invert_vf_symbol(spec, c, stored)
    report = check_symbol_class(inv, SymbolClassSpec(order=0.0, rho=0.0,
                                                     max_order=kappa),
                                band, grid=grid)
    report.notes.append("inverse symbol of a shifted frame field")
    return report
