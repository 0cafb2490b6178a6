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
stabilization, as one product of a theta basis and the sum's coefficients.
``twice_spin = 1`` is the fundamental (defining) 2x2 representation and
``twice_spin = 2`` is the adjoint.

The "band" of a representation label is ``twice_spin`` on SU(2) and the
sup-norm ``max_j |k_j|`` on the torus; bands add under pointwise products of
matrix coefficients, which is what the quadrature exactness bookkeeping in
:mod:`gmult.grids` tracks.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from itertools import product
from typing import Iterator, List, Sequence, Tuple, Union

import numpy as np

TorusLabel = Tuple[int, ...]
IrrepLabel = Union[int, TorusLabel]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class GroupModel:
    """A compact group instantiation.

    Attributes
    ----------
    kind : str
        Either ``"torus"`` or ``"su2"``.
    n : int
        Manifold dimension (``n`` for the torus, 3 for SU(2)).
    kappa : int
        Smallest even integer strictly greater than ``n / 2``; the number of
        difference orders the boundedness checkers must control.
    delta0 : tuple
        Labels of the first-shell representations whose matrix coefficients
        generate the difference calculus.
    """

    kind: str
    n: int
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
    return GroupModel(kind="torus", n=n, kappa=kappa, delta0=tuple(shells))


def su2_model() -> GroupModel:
    """The SU(2) model (manifold dimension 3, kappa = 2, adjoint first shell)."""
    return GroupModel(kind="su2", n=3, kappa=2, delta0=(2,))


def model_from_name(name: str) -> GroupModel:
    """Parse ``"su2"`` or ``"torus-<n>"`` with an integer ``n >= 1``."""
    if name == "su2":
        return su2_model()
    match = re.fullmatch(r"torus-([0-9]+)", name)
    if match and int(match.group(1)) >= 1:
        return torus_model(int(match.group(1)))
    raise ValueError(f"unknown group name {name!r} (expected 'su2' or "
                     "'torus-<n>' with an integer n >= 1)")


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


def bracket_powers(model: GroupModel, band: int, exponent: float) -> np.ndarray:
    """``<xi>^exponent`` at every label through ``band``, as a *label
    table*: index ``t`` on SU(2); on the torus the box ``|k|_inf <= band``
    with the origin at its centre (the order of :func:`labels_up_to`).
    Per-label quantities such as block norms share this layout."""
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

def _log_factorials(upto: int) -> np.ndarray:
    """Table of log(k!) for k = 0..upto."""
    return np.array([math.lgamma(k + 1.0) for k in range(upto + 1)])


#: Terms of the explicit sum formed at once by :func:`_wigner_coefficients`.
_COEF_CHUNK = 1 << 14


def _wigner_coefficients(twice_spin: int) -> np.ndarray:
    """The explicit Wigner sum's coefficients as a theta-independent matrix
    ``A[j, m d + n]``: the term of ``d^l_{mn}`` at the auxiliary index
    ``k`` is ``A[j, (m, n)] cos(theta/2)^(T - j) sin(theta/2)^j`` with
    ``j = m - n + 2k``, so each ``(j, m, n)`` holds at most one term.  Only
    the terms whose factorial arguments ``n - k``, ``k``, ``m - n + k`` and
    ``T - m - k`` are all ``>= 0`` are set, with log-factorial
    stabilization, a chunk of ``k`` at a time."""
    T = int(twice_spin)
    d = T + 1
    lf = _log_factorials(T)
    pref = 0.5 * (lf[:, None] + lf[::-1, None] + lf + lf[::-1])
    ar = np.arange(d)
    # the terms (k, m, a = n - k) with a <= m <= T - k: for each k, the
    # first (T - k + 1)(T - k + 2) / 2 pairs of the triangle a <= m
    tri_m, tri_a = np.nonzero(ar <= ar[:, None])
    sizes = (d - ar) * (d + 1 - ar) // 2
    A = np.zeros((d, d, d))
    step = max(1, _COEF_CHUNK // sizes[0])
    for lo in range(0, d, step):
        size = sizes[lo:lo + step]
        k = np.repeat(ar[lo:lo + step], size)
        at = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
        m, a = tri_m[at], tri_a[at]
        c, n = m - a, a + k
        logden = lf[a] + lf[k] + lf[c] + lf[T - m - k]
        sign = np.where(c & 1, -1.0, 1.0)
        A[c + k, m, n] = sign * np.exp(pref[m, n] - logden)
    return A.reshape(d, d * d)


def wigner_little_d(twice_spin: int, theta) -> np.ndarray:
    """Wigner little-d matrix ``d^l_{mn}(theta)``, rows/cols ascending in m, n.

    Parameters
    ----------
    twice_spin : int
        ``2 l >= 0``.
    theta : float or array
        Polar angle(s).  For an array of shape ``(N,)`` the result has shape
        ``(N, d, d)``; a scalar gives ``(d, d)``.

    Evaluated by the explicit sum over Wigner's auxiliary index ``k``: one
    real GEMM of the theta basis ``cos(theta/2)^(T - j) sin(theta/2)^j``
    against the sum's coefficient matrix (:func:`_wigner_coefficients`).
    Real-valued and orthogonal for each theta.
    """
    if twice_spin < 0:
        raise ValueError("twice_spin must be >= 0")
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    T = int(twice_spin)
    d = T + 1
    half = th / 2.0
    powers = np.arange(T + 1)
    basis = (np.cos(half)[:, None] ** powers[::-1]
             * np.sin(half)[:, None] ** powers)         # (theta, j)
    out = np.empty((th.size, d * d))
    np.matmul(basis, _wigner_coefficients(T), out=out)
    out = out.reshape(th.size, d, d)
    if np.isscalar(theta) or np.asarray(theta).ndim == 0:
        return out[0]
    return out


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


def jx_eigenbasis(twice_spin: int) -> np.ndarray:
    """Orthogonal eigenvectors ``V`` of the real tridiagonal ``J_x = V K
    V^T`` (:func:`angular_momentum`'s rows) from one real ``eigh``: column
    ``k`` holds the eigenvalue ``k - l``.  A quarter turn about the z-axis
    takes ``J_x`` to ``J_y``, so ``d^l_{mn}(theta) = e^{-i pi (m - n) / 2}
    sum_k V_mk V_nk e^{-i theta (k - l)}`` (Risbo, J. Geodesy 70, 1996).
    Each column's sign is arbitrary and cancels in ``V_mk V_nk``."""
    jx = angular_momentum((1.0, 0.0, 0.0), twice_spin).real
    return np.linalg.eigh(jx)[1]

