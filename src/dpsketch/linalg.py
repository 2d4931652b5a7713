"""Dense matrix routines and seeded noise sampling used by every sketcher.

Randomness policy: all sampling goes through ``numpy.random.default_rng``
(PCG64). Normal variates use numpy's ziggurat sampler, Laplace variates its
inverse-CDF sampler. Both are reproducible across platforms for a fixed
numpy version, and every sampler here takes an explicit seed, so parallel
callers stay deterministic by using disjoint seeds.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DecompositionError, ParameterError, SingularSystemError

class SvdResult(NamedTuple):
    """Thin SVD ``M = U @ diag(singular_values) @ V.T``.

    ``U`` is n-by-k with orthonormal columns, ``singular_values`` is a
    nonincreasing nonnegative vector of length k, and ``V`` is k-by-k with
    the right singular vectors as columns.
    """

    U: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray


def as_matrix(m) -> np.ndarray:
    """Return ``m`` as a float matrix, rejecting empty or non-finite input."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ParameterError(f"expected a non-empty 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ParameterError("matrix contains NaN or Inf entries")
    return a


def svd(m) -> SvdResult:
    """Thin singular value decomposition with descending singular values."""
    a = as_matrix(m)
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"SVD failed to converge: {exc}") from exc
    return SvdResult(u, s, vt.T)


def min_singular_value(m) -> float:
    """Smallest singular value of ``m`` (zero for rank-deficient input)."""
    return float(svd(m).singular_values[-1])


def qr_least_squares(m, rhs) -> np.ndarray:
    """Solve ``argmin_v ||M v - rhs||_2`` by Householder QR.

    Requires ``M`` to be tall (rows >= cols) with full column rank; QR is
    used instead of the normal equations so the condition number is not
    squared.

    Raises
    ------
    SingularSystemError
        If ``M`` is (numerically) rank deficient.
    """
    a = as_matrix(m)
    b = np.asarray(rhs, dtype=float).reshape(-1)
    if a.shape[0] < a.shape[1]:
        raise ParameterError(f"need rows >= cols, got shape {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise ParameterError("rhs length does not match matrix rows")
    q, r = np.linalg.qr(a, mode="reduced")
    diag = np.abs(np.diag(r))
    tol = max(a.shape) * np.finfo(float).eps * max(diag.max(), 1e-300)
    if diag.min() <= tol:
        raise SingularSystemError("matrix is rank deficient in least-squares solve")
    return np.linalg.solve(r, q.T @ b)


def sample_gaussian_matrix(rows: int, cols: int, sigma: float, seed) -> np.ndarray:
    """rows-by-cols matrix of i.i.d. N(0, sigma^2) entries, seed-deterministic."""
    if rows < 1 or cols < 1:
        raise ParameterError("matrix dimensions must be positive")
    if sigma < 0:
        raise ParameterError("sigma must be nonnegative")
    rng = np.random.default_rng(seed)
    return sigma * rng.standard_normal((rows, cols))


def sample_laplace(scale: float, seed) -> float:
    """One draw from Laplace(0, scale), seed-deterministic."""
    if scale <= 0:
        raise ParameterError("Laplace scale must be positive")
    rng = np.random.default_rng(seed)
    return float(rng.laplace(0.0, scale))
