"""Inverse symbols of perturbed frame fields on SU(2).

The symbol of a real left-invariant field ``X = a . frame`` is the exact
spin-matrix action ``-i a . J``: each block is skew-Hermitian with
eigenvalues ``-i |a| m`` and diagonalizes unitarily.  Rotate the
fundamental representation into the eigenbasis of the fundamental block:
the four first-order differences built from its coefficients act on the
field symbol as the constants ``tau = diag(i |a| / 2, -i |a| / 2)``
(scalar multiples of the identity, so no per-label basis change is needed
on the symbol side).  That turns inversion of ``X + c`` into scalar
arithmetic per eigenvalue and yields a closed-form expression for the
diagonal differences of the inverse symbol, checked here against an
independent quadrature route.

The inverse symbol is not band-limited; a truncation stored through band B
still certifies labels <= B because every difference word is lattice-local
(a factor of band w only couples labels at distance <= w).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ExceptionalValueError, GmultError
from .groups import GroupModel
from .symbols import (DifferenceWord, MatrixSymbol, apply_differences,
                      vector_field_symbol)
from .checkers import MultiplierReport, SymbolClassSpec, check_symbol_class

_SPECTRAL_MARGIN = 1e-8


@dataclass
class VectorFieldSpec:
    """A frame field on SU(2) with its exact symbol and per-label
    eigenbases.

    ``symbol`` is the exact Lie-algebra action of the field.  The columns
    of ``unitaries[t]`` are eigenvectors of the block at label ``t``, in
    the order of :meth:`eigenvalues`; the eigenvalues and the ``tau``
    table follow from ``|a|`` alone.
    """

    model: GroupModel
    coeffs: np.ndarray
    band: int
    symbol: MatrixSymbol
    unitaries: Dict[int, np.ndarray] = field(repr=False, default_factory=dict)

    @property
    def field_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def eigenvalues(self, t: int) -> np.ndarray:
        """Eigenvalues ``-i |a| m`` of the block at label ``t``, in
        ascending imaginary part."""
        return 0.5j * self.field_norm * np.arange(-t, t + 1, 2)

    @property
    def tau(self) -> np.ndarray:
        """The 2x2 table of the rotated fundamental differences acting on
        the field symbol: minus the label-1 eigenvalues on the diagonal."""
        return -np.diag(self.eigenvalues(1))


def build_field(model: GroupModel, coeffs, band: int) -> VectorFieldSpec:
    """Diagonalize the symbol of a nonzero real frame field through ``band``.

    ``eigh`` on the Hermitian block ``i sigma`` supplies the eigenvectors;
    each rotated block must match the exact eigenvalues within
    ``_SPECTRAL_MARGIN``.
    """
    if model.kind != "su2":
        raise GmultError("vector-field inversion is implemented on su2")
    a = np.asarray(coeffs, dtype=float)
    if a.shape != (3,):
        raise ValueError("expected three real frame coefficients")
    if np.linalg.norm(a) < 1e-12:
        raise ValueError("the zero field has no inverse theory")
    spec = VectorFieldSpec(model=model, coeffs=a, band=band,
                           symbol=vector_field_symbol(model, a, band))
    for t in range(band + 1):
        block = spec.symbol.entries[t]
        # i sigma has eigenvalues |a| m: descending order puts the symbol's
        # eigenvalues -i |a| m in ascending imaginary part
        V = np.linalg.eigh(1j * block)[1][:, ::-1]
        resid = np.abs(V.conj().T @ block @ V
                       - np.diag(spec.eigenvalues(t))).max()
        if resid > _SPECTRAL_MARGIN:
            raise GmultError(f"diagonalization residual {resid:.2e} at label {t}")
        spec.unitaries[t] = V
    return spec


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
                     band: Optional[int] = None) -> MatrixSymbol:
    """Per-label inverse of the shifted-field symbol, assembled through the
    eigenbases.  Refuses parameters within ``_SPECTRAL_MARGIN`` of the
    spectrum."""
    band = spec.band if band is None else int(band)
    if band > spec.band:
        raise GmultError("field was built through a smaller band; rebuild it")
    dist, bad_label, bad_ev = _nearest_eigenvalue(spec, c, band)
    if dist < _SPECTRAL_MARGIN:
        raise ExceptionalValueError(
            f"parameter {c} is within {dist:.2e} of eigenvalue {bad_ev} "
            f"at label {bad_label}; the shifted field is not invertible")
    entries = {}
    for t in range(band + 1):
        V = spec.unitaries[t]
        inv_diag = 1.0 / (spec.eigenvalues(t) + c)
        entries[t] = (V * inv_diag[None, :]) @ V.conj().T
    return MatrixSymbol(spec.model, entries, exact_band=band)


def _rotated_differences(model: GroupModel, sym: MatrixSymbol, V1: np.ndarray
                         ) -> Dict[Tuple[int, int], MatrixSymbol]:
    """First-order differences whose factors are the ``(i, j)``
    coefficients of the eigenbasis-rotated fundamental representation,
    applied to a symbol kept in the original frame basis.

    Each rotated coefficient ``sum_ab conj(V1_ai) V1_bj xi_ab`` is a fixed
    combination of the plain fundamental coefficients, so all four
    operators expand over the four plain first-order differences, which
    share one kernel synthesis.
    """
    plain = apply_differences([DifferenceWord(model, ((1, a, b),))
                               for a in range(2) for b in range(2)], sym)
    coef = np.kron(V1.conj(), V1)                  # [(a, b), (i, j)]
    cert = min(piece.exact_band for piece in plain)
    return {(i, j): MatrixSymbol(model, {
        t: sum(coef[ab, 2 * i + j] * plain[ab].entries[t] for ab in range(4))
        for t in plain[0].entries}, exact_band=cert)
        for i in range(2) for j in range(2)}


def recursion_residuals(spec: VectorFieldSpec, c: complex, band: int,
                        blocks: Sequence[int] = (0, 1)
                        ) -> Dict[int, Dict[str, float]]:
    """:func:`recursion_residual` for each block ``j`` in ``blocks``, from
    one inverse symbol whose four plain fundamental differences come from
    one kernel synthesis and serve every block."""
    if any(j not in (0, 1) for j in blocks):
        raise ValueError("j indexes the 2x2 fundamental block: 0 or 1")
    for shift, tag in [(c, "c")] + [(c + spec.tau[j, j], "c + tau_jj")
                                    for j in blocks]:
        dist, bad_label, bad_ev = _nearest_eigenvalue(spec, shift, band + 1)
        if dist < _SPECTRAL_MARGIN:
            raise ExceptionalValueError(
                f"{tag} = {shift} is within {dist:.2e} of eigenvalue "
                f"{bad_ev} at label {bad_label}")
    if band + 1 > spec.band:
        raise GmultError("rebuild the field through at least band + 1")
    inv = invert_vf_symbol(spec, c, band + 1)
    diffs = _rotated_differences(spec.model, inv, spec.unitaries[1])
    off_resid = max(float(np.linalg.norm(diffs[i, 1 - i].get(t)))
                    for i in range(2) for t in range(band + 1))
    out = {}
    for j in blocks:
        tau_jj = spec.tau[j, j]
        diag_resid = 0.0
        for t in range(band + 1):
            lam, V = spec.eigenvalues(t), spec.unitaries[t]
            scalars = -tau_jj / ((lam + c) * (lam + c + tau_jj))
            predicted = (V * scalars[None, :]) @ V.conj().T
            diag_resid = max(diag_resid, float(np.linalg.norm(
                diffs[j, j].get(t) - predicted)))
        out[j] = {"residual": diag_resid, "offdiagonal": off_resid,
                  "band": float(band), "tau": tau_jj}
    return out


def recursion_residual(spec: VectorFieldSpec, c: complex, j: int,
                       band: int) -> Dict[str, float]:
    """Residual of the closed-form expression for the diagonal differences
    of the inverse symbol, with the difference side computed by quadrature:

        D_jj inv + tau_jj * (sigma + c)^{-1} (sigma + (c + tau_jj))^{-1} = 0.

    Also measures the off-diagonal differences, which must vanish.  Returns
    max Hilbert-Schmidt norms over labels <= band.
    """
    return recursion_residuals(spec, c, band, blocks=(j,))[j]


def verify_s00(spec: VectorFieldSpec, c: complex,
               band: int) -> MultiplierReport:
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
                                                     max_order=kappa), band)
    report.notes.append("inverse symbol of a shifted frame field")
    return report
