"""Inverse symbols of perturbed frame fields on SU(2).

The symbol of a real left-invariant field ``X = a . frame`` is the exact
spin-matrix action ``-i a . J``: each block is skew-Hermitian with
eigenvalues ``-i |a| m``, diagonalized at label ``t`` by the spin-``t/2``
power of the fundamental block's eigenbasis.  So ``X + c`` is inverted a
block at a time against the exact eigenvalues, and the four first-order
differences built from the rotated fundamental coefficients act on the
field symbol as the constants ``tau = diag(i |a| / 2, -i |a| / 2)``.  That
yields a closed-form expression for the diagonal differences of the
inverse symbol, checked here against the difference route.

The inverse symbol is not band-limited; a truncation stored through band B
still certifies labels <= B because every difference word is lattice-local
(a factor of band w only couples labels at distance <= w).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ExceptionalValueError, GmultError
from .groups import GroupModel, angular_momentum
from .symbols import (MatrixSymbol, _residual_norm, _su2_differences,
                      symbol_add, symbol_product)
from .checkers import MultiplierReport, SymbolClassSpec, check_symbol_class

_SPECTRAL_MARGIN = 1e-8


@dataclass
class VectorFieldSpec:
    """A frame field ``a . frame`` on SU(2), stored through label ``band``
    (its symbol is :func:`gmult.symbols.vector_field_symbol`).  The columns
    of ``basis`` are eigenvectors of its block at label 1, in the order of
    :meth:`eigenvalues`; the eigenvalues and the ``tau`` table follow from
    ``|a|`` alone."""

    model: GroupModel
    coeffs: np.ndarray
    band: int
    basis: np.ndarray = field(repr=False)

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
    """A nonzero real frame field through ``band``, with the eigenbasis of
    its fundamental block from one ``eigh`` of ``a . J`` (whatever
    ``band`` is)."""
    if model.kind != "su2":
        raise GmultError("vector-field inversion is implemented on su2")
    a = np.asarray(coeffs, dtype=float)
    if a.shape != (3,):
        raise ValueError("expected three real frame coefficients")
    if np.linalg.norm(a) < 1e-12:
        raise ValueError("the zero field has no inverse theory")
    # i sigma = a . J has eigenvalues |a| m: descending order puts the
    # symbol's eigenvalues -i |a| m in ascending imaginary part
    basis = np.linalg.eigh(angular_momentum(a, 1))[1][:, ::-1]
    return VectorFieldSpec(model=model, coeffs=a, band=band, basis=basis)


def exceptional_set(spec: VectorFieldSpec, bound: float) -> List[complex]:
    """The parameters inside the closed disk of the given radius at which a
    stored block (labels through ``spec.band``) of the shifted-field symbol
    is singular: ``i |X| q / 2`` for the integers ``|q| <= spec.band``."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    half = 0.5 * spec.field_norm
    qmax = min(spec.band, int(math.floor(bound / half + 1e-12)))
    return [1j * half * q for q in range(-qmax, qmax + 1)]


def _nearest_eigenvalue(spec: VectorFieldSpec, c: complex,
                        band: int) -> Tuple[float, int, complex]:
    """(distance, label, eigenvalue) of the spectral point closest to -c
    among blocks through ``band``.  Those points are ``-i |a| q / 2`` for
    the integers ``|q| <= band``, each first reached at label ``|q|``."""
    A = spec.field_norm
    twice_m = int(round(min(max(2.0 * c.imag / A, -band), band)))
    ev = -0.5j * A * twice_m
    return abs(ev + c), abs(twice_m), ev


def _spin_powers(V: np.ndarray, band: int) -> Iterator[np.ndarray]:
    """The spin-``t/2`` representations of a 2x2 unitary, ``t = 0..band``
    (rows and columns ascending in ``m``): label ``t`` couples label ``t -
    1`` with ``V`` by the stretched Clebsch-Gordan weights ``sqrt(i / t)``,
    ``sqrt((t - i) / t)``, an isometry; renormalized columns keep the
    rounding near ``1e-16 t``."""
    U = np.ones((1, 1), dtype=complex)
    yield U
    for t in range(1, band + 1):
        pad, w = np.pad(U, 1), np.sqrt(np.arange(t + 1) / t)
        w = (w[::-1], w)                      # m - 1/2, then m + 1/2
        U = sum(V[k, l] * np.outer(w[k], w[l])
                * pad[1 - k:t + 2 - k, 1 - l:t + 2 - l]
                for k in (0, 1) for l in (0, 1))
        U /= np.linalg.norm(U, axis=0)
        yield U


def invert_vf_symbol(spec: VectorFieldSpec, c: complex,
                     band: Optional[int] = None) -> MatrixSymbol:
    """Per-label inverse of the shifted-field symbol, each block solved in
    its eigenbasis against the exact eigenvalues, however ill-conditioned.
    Refuses parameters within ``_SPECTRAL_MARGIN`` of the spectrum."""
    band = spec.band if band is None else int(band)
    if band > spec.band:
        raise GmultError(f"field was built through band {spec.band}; "
                         f"rebuild it through band {band}")
    dist, bad_label, bad_ev = _nearest_eigenvalue(spec, c, band)
    if dist < _SPECTRAL_MARGIN:
        raise ExceptionalValueError(
            f"parameter {c} is within {dist:.2e} of eigenvalue {bad_ev} "
            f"at label {bad_label}; the shifted field is not invertible")
    entries = {t: (U / (spec.eigenvalues(t) + c)) @ U.conj().T
               for t, U in enumerate(_spin_powers(spec.basis, band))}
    return MatrixSymbol(spec.model, entries, exact_band=band)


def _rotated_differences(model: GroupModel, sym: MatrixSymbol, V1: np.ndarray
                         ) -> Dict[Tuple[int, int], MatrixSymbol]:
    """First-order differences whose factors are the ``(i, j)``
    coefficients of the eigenbasis-rotated fundamental representation,
    applied to a symbol kept in the original frame basis.  Each rotated
    coefficient ``sum_ab conj(V1_ai) V1_bj xi_ab`` is a fixed combination
    of the plain fundamental coefficients, so all four operators come from
    one label stage of the kernel."""
    pairs = [(i, j) for i in range(2) for j in range(2)]
    diffs = _su2_differences(sym, 1, [
        [(V1[a, i].conjugate() * V1[b, j], ((1, a, b),)) for a, b in pairs]
        for i, j in pairs])
    return dict(zip(pairs, diffs))


def recursion_residuals(spec: VectorFieldSpec, c: complex, band: int,
                        blocks: Sequence[int] = (0, 1)
                        ) -> Dict[int, Dict[str, float]]:
    """:func:`recursion_residual` for each block ``j`` in ``blocks``, from
    one inverse symbol whose four rotated fundamental differences come from
    one label stage of its kernel and serve every block."""
    if any(j not in (0, 1) for j in blocks):
        raise ValueError("j indexes the 2x2 fundamental block: 0 or 1")
    inv = invert_vf_symbol(spec, c, band + 1)
    diffs = _rotated_differences(spec.model, inv, spec.basis)
    off_resid = max(_residual_norm(diffs[i, 1 - i], band) for i in range(2))
    out = {}
    for j in blocks:
        tau_jj = spec.tau[j, j]
        shifted = invert_vf_symbol(spec, c + tau_jj, band + 1)
        resid = symbol_add(diffs[j, j], symbol_product(inv, shifted),
                           beta=tau_jj)
        out[j] = {"residual": _residual_norm(resid, band),
                  "offdiagonal": off_resid, "band": float(band), "tau": tau_jj}
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
    inv = invert_vf_symbol(spec, c, band + 2 * kappa)
    report = check_symbol_class(inv, SymbolClassSpec(order=0.0, rho=0.0,
                                                     max_order=kappa), band)
    report.notes.append("inverse symbol of a shifted frame field")
    return report
