"""Dense matrix routines and seeded noise sampling used by every sketcher.

Every least-squares solve goes through one function, ``qr_least_squares``,
which takes the augmented ``[M | rhs]``: a blocked (tall-skinny) Householder
QR of it has an R factor that already holds ``Q^T rhs``, so ``Q`` is never
formed. The same R factor, ``tall_skinny_r``, gives the singular values of
``M`` (``M`` and ``R`` share them): ``svd`` of the small R returns them, and
no routine here returns singular vectors. ``tall_skinny_r`` folds each group
of row blocks into one running R, so beyond its input it holds one group,
whatever ``n``.

Randomness policy: all sampling goes through ``numpy.random.default_rng``
(PCG64). Normal variates use numpy's ziggurat sampler, Laplace variates its
inverse-CDF sampler. Both are reproducible across platforms for a fixed
numpy version, and every sampler here takes an explicit seed, so parallel
callers stay deterministic by using disjoint seeds.
"""

from __future__ import annotations

import numpy as np

from .errors import DecompositionError, ParameterError, SingularSystemError


def nonempty_matrix(m) -> np.ndarray:
    """Return ``m`` as a float matrix, rejecting input that is not 2-d or empty."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ParameterError(f"expected a non-empty 2-d matrix, got shape {a.shape}")
    return a


def as_matrix(m) -> np.ndarray:
    """Return ``m`` as a float matrix, rejecting empty or non-finite input."""
    a = nonempty_matrix(m)
    if not np.all(np.isfinite(a)):
        raise ParameterError("matrix contains NaN or Inf entries")
    return a


def svd(m) -> np.ndarray:
    """Singular values of ``m``, descending, from LAPACK's thin SVD."""
    a = as_matrix(m)
    try:
        _, s, _ = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"SVD failed to converge: {exc}") from exc
    return s


# Rows per Householder block. Blocks this size keep each factorization in
# cache; 256 was the fastest of 64..2048 on a 20k x 11 weighted design.
_QR_BLOCK = 256
# Below this many rows one unblocked QR is faster than the three LAPACK
# calls of the blocked one (they broke even near 3000 rows at 11 columns).
_QR_BLOCKED_MIN_ROWS = 16 * _QR_BLOCK
# Entries of ``ab`` per batched QR call. The batched call copies its input,
# and every group is folded into one running R before the next is read, so
# this bounds the whole of ``tall_skinny_r``'s temporary at about 512 kB
# whatever ``n`` is.
_QR_GROUP_ENTRIES = 1 << 16


def tall_skinny_r(ab: np.ndarray) -> np.ndarray:
    """R factor of ``ab`` from Householder QR of row blocks, folded into one running R.

    ``ab = Q_1 R_1`` per block and ``[R_1; R_2; ...] = Q' R`` give
    ``ab = diag(Q_1, Q_2, ...) Q' R``, so ``R`` is an R factor of ``ab``
    (Demmel, Grigori, Hoemmen & Langou, tall-skinny QR). No ``Q`` is formed.
    The blocks go to LAPACK in groups of about ``_QR_GROUP_ENTRIES`` entries.
    The first group's stacked block Rs are held; each later group is folded
    in as ``held = qr([held; group Rs])``, which leaves ``held`` a ``k x k``
    R of the rows read so far, and the remainder block's R is stacked under
    it for the last QR. So memory is one group plus ``O(k^2)``, whatever
    ``n``. An input of at most one group takes exactly the calls of one
    stack of every block's R; past that, the bits follow the fold order,
    and the rows of R may differ in sign from another order's.

    ``ab`` must be a finite float matrix (callers validate, e.g. with
    ``as_matrix``).
    """
    n, k = ab.shape
    if n < _QR_BLOCKED_MIN_ROWS or k >= _QR_BLOCK:
        return np.linalg.qr(ab, mode="r")
    full = n - n % _QR_BLOCK
    step = _QR_BLOCK * max(1, _QR_GROUP_ENTRIES // (_QR_BLOCK * k))
    held = None
    for i in range(0, full, step):
        rs = np.linalg.qr(ab[i : min(i + step, full)].reshape(-1, _QR_BLOCK, k), mode="r").reshape(-1, k)
        held = rs if held is None else np.linalg.qr(np.vstack([held, rs]), mode="r")
    parts = [held]
    if full < n:
        parts.append(np.linalg.qr(ab[full:], mode="r"))
    return np.linalg.qr(np.vstack(parts), mode="r")


def qr_least_squares(ab) -> np.ndarray:
    """Solve ``argmin_v ||M v - rhs||_2`` given the augmented ``ab = [M | rhs]``.

    ``M`` must be tall (rows >= cols) with full column rank. The R factor of
    ``[M | rhs]`` carries both ``R_M`` (its leading ``k x k`` block) and
    ``Q_M^T rhs`` (the first ``k`` entries of its last column), so one
    blocked Householder QR of ``ab`` and a triangular solve give the
    solution without ever forming ``Q``. Householder QR is used instead of
    the normal equations (or a Cholesky factor of ``M^T M``) so the
    condition number is not squared.

    Raises
    ------
    ParameterError
        If ``ab`` is not a finite matrix, or ``M`` has no column or fewer
        rows than columns.
    SingularSystemError
        If ``M`` is (numerically) rank deficient.
    """
    ab = as_matrix(ab)
    rows, k = ab.shape[0], ab.shape[1] - 1
    if not 1 <= k <= rows:
        raise ParameterError(f"need rows >= cols >= 1, got shape {(rows, k)}")
    r = tall_skinny_r(ab)
    diag = np.abs(np.diag(r)[:k])
    tol = max(rows, k) * np.finfo(float).eps * max(diag.max(), 1e-300)
    if diag.min() <= tol:
        raise SingularSystemError("matrix is rank deficient in least-squares solve")
    return np.linalg.solve(r[:k, :k], r[:k, k])


def sample_gaussian_matrix(rows: int, cols: int, sigma: float, seed) -> np.ndarray:
    """rows-by-cols matrix of i.i.d. N(0, sigma^2) entries, seed-deterministic.

    ``seed`` may be a ``Generator``, whose stream the draw continues: numpy
    draws the rows of a matrix in order, so draws of consecutive row blocks
    equal one draw of their stack.
    """
    if rows < 1 or cols < 1:
        raise ParameterError("matrix dimensions must be positive")
    if not 0 <= sigma < np.inf:
        raise ParameterError(f"sigma must be nonnegative and finite, got {sigma}")
    check_addressable(rows, cols, "Gaussian draw")
    out = np.random.default_rng(seed).standard_normal((rows, cols))
    out *= sigma
    return out


def check_addressable(rows: int, cols: int, what: str) -> None:
    """Refuse a float64 ``rows x cols`` shape whose byte size exceeds ``intp``.

    numpy refuses such a shape with a ValueError before it tries to allocate.
    """
    if rows * cols * np.dtype(float).itemsize > np.iinfo(np.intp).max:
        raise ParameterError(f"a {rows} x {cols} {what} exceeds the largest array this platform can address")


def sample_laplace(scale: float, seed) -> float:
    """One draw from Laplace(0, scale), seed-deterministic."""
    if scale <= 0:
        raise ParameterError("Laplace scale must be positive")
    rng = np.random.default_rng(seed)
    return float(rng.laplace(0.0, scale))
