"""Shared fixtures: group models, deterministic RNG, random symbol factory
(``random_symbol``, from :mod:`gmult.symbols`).

Also the reference code several test files share: ``op_norm`` (the
per-block operator norm), the Euler-chart chain ``wigner_matrix``,
``su2_exp``, ``su2_exp_point`` and ``euler_from_su2``, which places group
points for the five-point-stencil oracle of the frame-field symbols, and
the node-space difference route ``grid_differences`` (with
``word_samples`` and ``rho_squared_samples``), the oracle of the SU(2)
phase route and of the torus box slices, the grid quadrature
``integrate``, and the ``no_lapack`` fixture."""
import math
from typing import Callable, Iterable, Iterator, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import settings

from gmult.grids import GroupFunction, GroupGrid, build_grid
from gmult.groups import angular_momentum, model_from_name, wigner_little_d
from gmult.symbols import DifferenceWord
from gmult.symbols import random_symbol  # noqa: F401  (shared by the tests)
from gmult.transform import fourier_forward, fourier_inverse

_TWO_PI = 2.0 * math.pi
_FOUR_PI = 4.0 * math.pi
_ANGLE_TOL = 1e-9

settings.register_profile("suite", max_examples=25, deadline=None)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def su2():
    return model_from_name("su2")


@pytest.fixture(scope="session")
def torus3():
    return model_from_name("torus-3")


@pytest.fixture(scope="session")
def torus2():
    return model_from_name("torus-2")


@pytest.fixture
def rng():
    return np.random.default_rng(20240816)


class _NoLapack:
    def __getattr__(self, name):
        raise AssertionError(f"LAPACK routine {name} called")


@pytest.fixture
def no_lapack(monkeypatch):
    """Any LAPACK call raises: numpy's LAPACK gufunc module, behind every
    ``numpy.linalg`` solver and ``np.polyfit``'s own reference to
    ``lstsq``, is replaced, and ``np.linalg.lstsq`` itself."""
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    monkeypatch.setattr("numpy.linalg._linalg._umath_linalg", _NoLapack())


def op_norm(mat: np.ndarray) -> float:
    """Largest singular value (the operator norm used throughout)."""
    mat = np.atleast_2d(np.asarray(mat))
    if mat.shape == (1, 1):
        return abs(complex(mat[0, 0]))
    return float(np.linalg.norm(mat, 2))


# ---------------------------------------------------------------------------
# Euler chart of SU(2)
# ---------------------------------------------------------------------------

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


def euler_from_su2(U: np.ndarray) -> Tuple[float, float, float]:
    """Euler triple of a 2x2 special unitary matrix.

    Inverse of ``wigner_matrix(1, .)`` up to the usual coordinate degeneracies at
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


# ---------------------------------------------------------------------------
# Node-space difference route
# ---------------------------------------------------------------------------

def integrate(grid: GroupGrid, samples: np.ndarray) -> complex:
    """Quadrature of flattened samples against the grid's Haar weights."""
    samples = np.asarray(samples).reshape(-1)
    assert samples.size == grid.node_count, "sample count does not match grid"
    return complex(np.dot(grid.weights, samples))


def rho_squared_samples(grid: GroupGrid) -> np.ndarray:
    """Samples of the squared pseudo-distance ``rho^2`` at the grid nodes:
    ``2 - 2 cos t`` at the class angle ``t`` on SU(2), ``2 n - sum_j
    (e^{2 pi i x_j} + e^{-2 pi i x_j})`` on the torus; clipped at 0."""
    if grid.model.kind == "su2":
        P, T, S = np.meshgrid(grid.phis, grid.thetas, grid.psis, indexing="ij")
        half_trace = np.cos(T / 2.0) * np.cos((P + S) / 2.0)
        angle = 2.0 * np.arccos(np.clip(half_trace, -1.0, 1.0))
        vals = (2.0 - 2.0 * np.cos(angle)).reshape(-1)
    else:
        terms = 2.0 - 2.0 * np.cos(_TWO_PI * grid.axis)
        vals = sum(np.meshgrid(*([terms] * grid.model.n), indexing="ij"))
        vals = vals.reshape(-1)
    return np.maximum(vals, 0.0)


def word_samples(grid: GroupGrid, word: DifferenceWord) -> np.ndarray:
    """Samples of the word's multiplier ``prod (xi_ij - delta_ij)``."""
    q = np.ones(grid.node_count, dtype=complex)
    for lb, i, j in word.factors:
        q = q * (grid.coefficient_function(lb, i, j) - (1.0 if i == j else 0.0))
    return q


def grid_differences(sym, wband: int, out_band: int,
                     multipliers: Iterable[Callable[[GroupGrid], np.ndarray]]
                     ) -> Iterator:
    """The quadrature route by its definition: synthesize the kernel on a
    grid exact for the products, multiply it by each multiplier's samples
    (a function of band <= ``wband`` vanishing at the identity) and
    transform back through ``out_band``.  The grid is one band above the
    smallest exact one, which the SU(2) route builds, so a match also shows
    that the result does not depend on the grid."""
    reach = max(sym.support_band, out_band)
    total = sym.support_band + wband + out_band
    if sym.model.kind == "su2":     # twice-spins <= 2B, products <= 4B
        band = max(1, -(-reach // 2), -(-total // 4))
    else:                           # |k|_inf <= B, products <= 2B
        band = max(1, reach, -(-total // 2))
    grid = build_grid(sym.model, band + 1)
    kernel = fourier_inverse(sym, grid)
    declared = min(kernel.declared_band + wband, grid.max_label_band)
    for multiplier in multipliers:
        product = GroupFunction(grid, kernel.samples * multiplier(grid),
                                declared)
        coeffs = fourier_forward(product, band=out_band)
        coeffs.exact_band = min(sym.exact_band - wband, coeffs.exact_band)
        yield coeffs
