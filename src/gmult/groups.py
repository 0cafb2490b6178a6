"""Group models and irreducible representation data for T^n and SU(2).

Conventions
-----------
Torus ``T^n = R^n / Z^n``: representations are the characters
``x -> exp(2 pi i k.x)`` indexed by integer vectors ``k`` (stored as tuples).
All are one dimensional.

SU(2): representations are indexed by a nonnegative integer ``twice_spin``
(``2l`` for spin ``l``), with dimension ``twice_spin + 1``.  A group element
is parametrized by Euler angles ``(phi, theta, psi)`` with
``phi in [0, 2pi)``, ``theta in [0, pi]``, ``psi in [0, 4pi)`` and represented
by the Wigner matrix

    D^l_{mn}(phi, theta, psi) = exp(-i m phi) d^l_{mn}(theta) exp(-i n psi),

rows and columns running over ``m, n = -l..l`` in ascending order.  The
little-d matrix is evaluated by the explicit Wigner sum with log-factorial
stabilization.  ``twice_spin = 1`` is the fundamental (defining) 2x2
representation and ``twice_spin = 2`` is the adjoint.

The "band" of a representation label is ``twice_spin`` on SU(2) and the
sup-norm ``max_j |k_j|`` on the torus; bands add under pointwise products of
matrix coefficients, which is what the quadrature exactness bookkeeping in
:mod:`gmult.grids` tracks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from typing import Iterable, Iterator, List, Sequence, Tuple, Union

import numpy as np

TorusLabel = Tuple[int, ...]
IrrepLabel = Union[int, TorusLabel]

_TWO_PI = 2.0 * math.pi
_FOUR_PI = 4.0 * math.pi
_ANGLE_TOL = 1e-9


@dataclass(frozen=True)
class GroupModel:
    """A compact group instantiation.

    Attributes
    ----------
    kind : str
        Either ``"torus"`` or ``"su2"``.
    n : int
        Manifold dimension (``n`` for the torus, 3 for SU(2)).
    rank : int
        Rank of a maximal torus.
    kappa : int
        Smallest even integer strictly greater than ``n / 2``; the number of
        difference orders the boundedness checkers must control.
    delta0 : tuple
        Labels of the first-shell representations whose matrix coefficients
        generate the difference calculus.
    """

    kind: str
    n: int
    rank: int
    kappa: int
    delta0: Tuple[IrrepLabel, ...] = field(default=())

    @property
    def name(self) -> str:
        return "su2" if self.kind == "su2" else f"torus-{self.n}"


def torus_model(n: int) -> GroupModel:
    """The n-torus model.  ``n >= 1``."""
    if n < 1:
        raise ValueError(f"torus dimension must be >= 1, got {n}")
    kappa = 2
    while kappa <= n / 2:
        kappa += 2
    shells = []
    for j in range(n):
        for sign in (1, -1):
            k = [0] * n
            k[j] = sign
            shells.append(tuple(k))
    return GroupModel(kind="torus", n=n, rank=n, kappa=kappa, delta0=tuple(shells))


def su2_model() -> GroupModel:
    """The SU(2) model (manifold dimension 3, kappa = 2, adjoint first shell)."""
    return GroupModel(kind="su2", n=3, rank=1, kappa=2, delta0=(2,))


def model_from_name(name: str) -> GroupModel:
    """Parse ``"su2"`` or ``"torus-<n>"``."""
    if name == "su2":
        return su2_model()
    if name.startswith("torus-"):
        return torus_model(int(name.split("-", 1)[1]))
    raise ValueError(f"unknown group name {name!r} (expected 'su2' or 'torus-<n>')")


def validate_label(model: GroupModel, label: IrrepLabel) -> IrrepLabel:
    if model.kind == "su2":
        if not isinstance(label, (int, np.integer)) or label < 0:
            raise ValueError(f"SU(2) labels are nonnegative integers (twice_spin), got {label!r}")
        return int(label)
    label = tuple(int(v) for v in label)
    if len(label) != model.n:
        raise ValueError(f"torus-{model.n} labels need {model.n} components, got {label!r}")
    return label


def irrep_dimension(model: GroupModel, label: IrrepLabel) -> int:
    """Dimension of the representation: ``twice_spin + 1`` on SU(2), 1 on T^n."""
    label = validate_label(model, label)
    if model.kind == "su2":
        return label + 1
    return 1


def label_band(model: GroupModel, label: IrrepLabel) -> int:
    """Band of a label: ``twice_spin`` on SU(2), ``max_j |k_j|`` on T^n."""
    label = validate_label(model, label)
    if model.kind == "su2":
        return label
    return max(abs(v) for v in label) if label else 0


def casimir_lambda(model: GroupModel, label: IrrepLabel) -> float:
    """Positive square root of the Casimir (Laplacian) eigenvalue.

    ``lambda^2 = l (l + 1)`` on SU(2) for ``twice_spin = 2 l`` and
    ``lambda = 2 pi |k|_2`` on the torus.
    """
    label = validate_label(model, label)
    if model.kind == "su2":
        ell = label / 2.0
        return math.sqrt(ell * (ell + 1.0))
    return _TWO_PI * math.sqrt(sum(v * v for v in label))


def japanese_bracket(model: GroupModel, label: IrrepLabel) -> float:
    """Weight ``<xi> = max(1, lambda_xi)`` used in all decay conditions."""
    return max(1.0, casimir_lambda(model, label))


def labels_up_to(model: GroupModel, band: int) -> Iterator[IrrepLabel]:
    """All labels with ``label_band <= band``, in a fixed deterministic order."""
    if band < 0:
        return
    if model.kind == "su2":
        yield from range(band + 1)
    else:
        for k in product(range(-band, band + 1), repeat=model.n):
            yield k


def label_box(n: int, band: int) -> List[np.ndarray]:
    """Integer coordinate axes ``k_1..k_n`` of the torus labels
    ``|k|_inf <= band``: axis ``j`` has length ``2 band + 1`` along
    dimension ``j`` and 1 elsewhere, so elementwise expressions in them
    broadcast over the box ``(2 band + 1)^n``."""
    return np.meshgrid(*([np.arange(-band, band + 1)] * n), indexing="ij",
                       sparse=True)


def label_bands(model: GroupModel, band: int) -> np.ndarray:
    """Band of every label through ``band``, laid out as a *label table*:
    index ``t`` on SU(2); on the torus the box ``|k|_inf <= band`` with the
    origin at its centre (the order of :func:`labels_up_to`).  Per-label
    quantities such as block norms and weights share this layout."""
    if model.kind == "su2":
        return np.arange(band + 1)
    return reduce(np.maximum, (np.abs(a) for a in label_box(model.n, band)))


def bracket_powers(model: GroupModel, band: int, exponent: float) -> np.ndarray:
    """``<xi>^exponent`` at every label through ``band``, as a label table."""
    if model.kind == "su2":
        # one label at a time: numpy's vectorized power may round the last
        # bit differently from the scalar weights used elsewhere
        return np.array([japanese_bracket(model, t) ** exponent
                         for t in range(band + 1)])
    lam = _TWO_PI * np.sqrt(sum(a.astype(float) ** 2
                                for a in label_box(model.n, band)))
    return np.maximum(1.0, lam) ** exponent


# ---------------------------------------------------------------------------
# Wigner matrices
# ---------------------------------------------------------------------------

_LOG_FACT_CACHE = [0.0]


def _log_factorials(upto: int) -> np.ndarray:
    """Table of log(k!) for k = 0..upto."""
    while len(_LOG_FACT_CACHE) <= upto:
        k = len(_LOG_FACT_CACHE)
        _LOG_FACT_CACHE.append(math.lgamma(k + 1.0))
    return np.asarray(_LOG_FACT_CACHE[: upto + 1])


def wigner_little_d(twice_spin: int, theta) -> np.ndarray:
    """Wigner little-d matrix ``d^l_{mn}(theta)``, rows/cols ascending in m, n.

    Parameters
    ----------
    twice_spin : int
        ``2 l >= 0``.
    theta : float or array
        Polar angle(s).  For an array of shape ``(N,)`` the result has shape
        ``(N, d, d)``; a scalar gives ``(d, d)``.

    Evaluated by the explicit sum over Wigner's auxiliary index with
    log-factorial stabilization; real-valued and orthogonal for each theta.
    """
    if twice_spin < 0:
        raise ValueError("twice_spin must be >= 0")
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    T = int(twice_spin)
    d = T + 1
    half = th / 2.0
    c, s = np.cos(half), np.sin(half)
    powers = np.arange(T + 1)
    cp = c[:, None] ** powers[None, :]
    sp = s[:, None] ** powers[None, :]
    lf = _log_factorials(T)
    mi, ni = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    pref = 0.5 * (lf[mi] + lf[T - mi] + lf[ni] + lf[T - ni])
    out = np.zeros((th.size, d, d))
    for k in range(T + 1):
        valid = (ni >= k) & (mi - ni + k >= 0) & (T - mi >= k)
        if not valid.any():
            continue
        logden = np.where(valid, lf[np.clip(ni - k, 0, T)] + lf[k]
                          + lf[np.clip(mi - ni + k, 0, T)]
                          + lf[np.clip(T - mi - k, 0, T)], 0.0)
        sign = np.where((mi - ni + k) % 2 == 0, 1.0, -1.0)
        coef = np.where(valid, sign * np.exp(pref - logden), 0.0)
        cospow = np.clip(T + ni - mi - 2 * k, 0, T)
        sinpow = np.clip(mi - ni + 2 * k, 0, T)
        out += coef[None, :, :] * cp[:, cospow] * sp[:, sinpow]
    if np.isscalar(theta) or np.asarray(theta).ndim == 0:
        return out[0]
    return out


def _check_angles(point: Sequence[float]) -> Tuple[float, float, float]:
    if len(point) != 3:
        raise ValueError(f"SU(2) points are Euler triples, got {point!r}")
    phi, theta, psi = (float(v) for v in point)
    if not (-_ANGLE_TOL <= phi < _TWO_PI + _ANGLE_TOL):
        raise ValueError(f"phi out of range [0, 2pi): {phi}")
    if not (-_ANGLE_TOL <= theta <= math.pi + _ANGLE_TOL):
        raise ValueError(f"theta out of range [0, pi]: {theta}")
    if not (-_ANGLE_TOL <= psi < _FOUR_PI + _ANGLE_TOL):
        raise ValueError(f"psi out of range [0, 4pi): {psi}")
    phi = min(max(phi, 0.0), np.nextafter(_TWO_PI, 0.0))
    theta = min(max(theta, 0.0), math.pi)
    psi = min(max(psi, 0.0), np.nextafter(_FOUR_PI, 0.0))
    return phi, theta, psi


def wigner_matrix(twice_spin: int, point: Sequence[float]) -> np.ndarray:
    """Full Wigner matrix ``D^l(phi, theta, psi)`` (unitary, ``(d, d)`` complex).

    ``point`` must satisfy ``phi in [0, 2pi)``, ``theta in [0, pi]``,
    ``psi in [0, 4pi)``; anything outside raises ValueError.
    """
    phi, theta, psi = _check_angles(point)
    T = int(twice_spin)
    little = wigner_little_d(T, theta)
    twice_m = np.arange(-T, T + 1, 2)
    row = np.exp(-0.5j * twice_m * phi)
    col = np.exp(-0.5j * twice_m * psi)
    return row[:, None] * little * col[None, :]


def su2_matrix(point: Sequence[float]) -> np.ndarray:
    """Fundamental 2x2 matrix of the Euler triple (equals ``wigner_matrix(1, .)``)."""
    return wigner_matrix(1, point)


def euler_from_su2(U: np.ndarray) -> Tuple[float, float, float]:
    """Euler triple of a 2x2 special unitary matrix.

    Inverse of :func:`su2_matrix` up to the usual coordinate degeneracies at
    ``theta in {0, pi}`` (where only ``phi + psi`` resp. ``phi - psi`` is
    determined; a fixed representative is returned).
    """
    U = np.asarray(U, dtype=complex)
    if U.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    if not np.allclose(U @ U.conj().T, np.eye(2), atol=1e-10):
        raise ValueError("matrix is not unitary")
    if abs(np.linalg.det(U) - 1.0) > 1e-10:
        raise ValueError("matrix does not have unit determinant")
    alpha, beta = U[0, 0], U[0, 1]
    theta = 2.0 * math.atan2(abs(beta), abs(alpha))
    s = math.atan2(alpha.imag, alpha.real) if abs(alpha) > 1e-14 else 0.0
    dd = math.atan2(beta.imag, beta.real) if abs(beta) > 1e-14 else 0.0
    phi = s + dd
    psi = s - dd
    if phi < 0.0:
        phi += _TWO_PI
        psi += _TWO_PI
    if phi >= _TWO_PI:
        phi -= _TWO_PI
        psi -= _TWO_PI
    psi = psi % _FOUR_PI
    theta = min(max(theta, 0.0), math.pi)
    return phi, theta, psi


def angular_momentum(coeffs: Sequence[float], twice_spin: int) -> np.ndarray:
    """``a1 J1 + a2 J2 + a3 J3`` for the spin-``l`` angular-momentum
    matrices, rows and columns ascending in ``m``: ``J3 = diag(m)``,
    ``J1 = (J+ + J-) / 2``, ``J2 = (J+ - J-) / (2 i)``, ``J- = J+^T`` and
    ``J+[m + 1, m] = sqrt((l - m)(l + m + 1))``.  Exactly Hermitian.

    The frame field ``X = a . frame`` acts in the representation as
    ``-i a . J`` (Ruzhansky & Turunen, *Pseudo-Differential Operators and
    Symmetries*, 2010, SU(2) chapter).
    """
    a = np.asarray(coeffs, dtype=float)
    T = int(twice_spin)
    twice_m = np.arange(-T, T + 1, 2)
    raising = np.diag(np.sqrt((T - twice_m[:-1]) * (T + twice_m[1:])) / 2.0,
                      -1)
    lowering = raising.T
    return (a[0] * 0.5 * (raising + lowering)
            + a[1] * (raising - lowering) / 2j + a[2] * np.diag(0.5 * twice_m))


def su2_exp(coeffs: Sequence[float], t: float = 1.0) -> np.ndarray:
    """2x2 matrix of ``exp(t X)`` for ``X = a1 D1 + a2 D2 + a3 D3``, in
    closed form because ``(a . J)^2 = |a|^2 / 4 * I`` on the fundamental
    block.

    ``D3`` generates the psi-translations: ``su2_exp((0, 0, 1), t)`` equals
    ``diag(exp(i t / 2), exp(-i t / 2))``.
    """
    a = np.asarray(coeffs, dtype=float)
    if a.shape != (3,):
        raise ValueError("frame coefficient vector must have 3 components")
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        return np.eye(2, dtype=complex)
    M = angular_momentum(a, 1)
    half = 0.5 * t * norm
    return math.cos(half) * np.eye(2, dtype=complex) - 1j * math.sin(half) * (2.0 / norm) * M


def su2_exp_point(coeffs: Sequence[float], t: float = 1.0) -> Tuple[float, float, float]:
    """Euler triple of ``exp(t X)``; see :func:`su2_exp`."""
    return euler_from_su2(su2_exp(coeffs, t))
