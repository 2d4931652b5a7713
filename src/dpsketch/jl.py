"""Private Johnson-Lindenstrauss release.

The release pipeline: a noisy test decides whether the smallest singular
value of ``A`` clears a privacy threshold ``w``. If it does, the released
sketch has the law of ``S A`` for a Gaussian ``S``. Otherwise ``A`` is
augmented with ``c Q`` where ``Q = V Sigma V^T``, which scales every singular
value by the same factor until the smallest reaches ``w``, and the release
has the law of ``S [A; cQ]``. Unlike appending ``w I``, the scaling route
keeps the sketched problem an unregularized least-squares problem.

``S`` is never formed. Each row of ``S M`` is an independent
``N(0, M^T M)`` draw, and ``Q = (A^T A)^{1/2}`` gives
``[A; cQ]^T [A; cQ] = (1 + c^2) A^T A``. So the release is drawn as
``sqrt(1 + c^2) G Q`` with ``G`` an ``r x (d+1)`` matrix of N(0, 1) entries:
the same law as ``S A`` (``c = 0``) or ``S [A; cQ]``, at the cost of an
``r x (d+1)`` draw instead of an ``r x n`` one. The privacy analysis of the
JL release depends only on this law.

The entries are unscaled N(0, 1); the argmin of the sketched problem is
invariant to scaling, so the conventional ``1/sqrt(r)`` factor is applied
only inside distortion diagnostics, never to the release. ``G`` and the seed
are never part of the release: privacy rests on their secrecy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import DataMatrix, max_row_norm
from .errors import CertificationError, ParameterError, SingularSystemError
from .linalg import as_matrix, sample_gaussian_matrix, sample_laplace, svd
from .mechanisms import PrivacyParams, RowBound

# Utility degrades by (1 + c^2); flag releases where that factor got large.
_UTILITY_WARN_FACTOR = 100.0


@dataclass(frozen=True)
class JlConfig:
    """Parameters of one private JL release."""

    r: int
    pp: PrivacyParams
    bound: RowBound
    seed: int

    def __post_init__(self):
        if self.r < 1:
            raise ParameterError("projected row count r must be at least 1")


@dataclass(frozen=True)
class JlReleaseMeta:
    """Public metadata accompanying a released JL sketch (no seed, no G)."""

    branch: str  # "no-augment" | "spectral-augment"
    w_squared: float
    c: float
    r: int
    epsilon: float
    delta: float
    B: float
    utility_warning: bool = False


def threshold_w_squared(bound: RowBound, pp: PrivacyParams, r: int) -> float:
    """Privacy threshold w^2 = 8B^2/eps * (sqrt(2 r ln(8/delta)) + 2 ln(8/delta))."""
    if r < 1:
        raise ParameterError("r must be at least 1")
    log_term = math.log(8.0 / pp.delta)
    return 8.0 * bound.B**2 / pp.epsilon * (math.sqrt(2.0 * r * log_term) + 2.0 * log_term)


def noisy_rank_test(sigma_min_sq: float, w_sq: float, bound: RowBound, pp: PrivacyParams, seed) -> bool:
    """Laplace-noised comparison of sigma_min(A)^2 against the privacy threshold.

    Draws ``Z ~ Laplace(4B^2/eps)`` and returns whether
    ``sigma_min_sq > w_sq + Z + 4B^2 ln(1/delta)/eps``. Ties lose: equality
    routes to the augmentation branch.
    """
    if sigma_min_sq < 0:
        raise ParameterError("sigma_min_sq must be nonnegative")
    z = sample_laplace(4.0 * bound.B**2 / pp.epsilon, seed)
    margin = 4.0 * bound.B**2 * math.log(1.0 / pp.delta) / pp.epsilon
    return sigma_min_sq > w_sq + z + margin


def spectral_augment(a, w: float) -> "tuple[np.ndarray, float]":
    """Append ``c Q`` with ``Q = V Sigma V^T`` so the smallest singular value becomes w.

    Returns ``([A; cQ], c)`` with ``c = sqrt(w^2 / sigma_min(A)^2 - 1)``.
    Because ``Q^T Q = A^T A``, the stacked matrix satisfies
    ``Ahat^T Ahat = (1 + c^2) A^T A``: every singular value is scaled by
    ``w / sigma_min(A)`` and norms ``||Q beta|| = ||A beta||`` are preserved.
    """
    a = as_matrix(a)
    if a.shape[0] < a.shape[1]:
        raise SingularSystemError("a wide matrix cannot have full column rank")
    u, s, v = svd(a)
    smax, smin = float(s[0]), float(s[-1])
    if smin <= smax * max(a.shape) * np.finfo(float).eps:
        raise SingularSystemError("cannot augment a rank-deficient matrix")
    if smin > w:
        raise ParameterError(
            f"sigma_min = {smin:.6g} already exceeds w = {w:.6g}; augmentation not needed"
        )
    c = _augment_factor(smin, w)
    q = (v * s) @ v.T
    return np.vstack([a, c * q]), c


def _augment_factor(smin: float, w: float) -> float:
    """``c = sqrt(w^2 / sigma_min^2 - 1)``, clamped at 0."""
    return math.sqrt(max(w**2 / smin**2 - 1.0, 0.0))


def _gaussian_times_root(v: np.ndarray, s: np.ndarray, r: int, seed) -> np.ndarray:
    """``G Q`` for ``Q = V diag(s) V^T`` and ``G`` an r-row matrix of N(0, 1) entries.

    With ``V``, ``s`` from the thin SVD of ``A``, ``Q = (A^T A)^{1/2}`` and
    the rows of ``G Q`` are iid ``N(0, A^T A)``: the law of the rows of
    ``S A`` for an r-by-n Gaussian ``S``, which is never formed.
    """
    q = (v * s) @ v.T
    return sample_gaussian_matrix(r, q.shape[0], 1.0, seed) @ q


def suggested_jl_rows(mu: float, d: int, constant: float = 1.0) -> int:
    """Advisory row count ``ceil(C * mu^-2 * d * ln(max(d, 2)))`` for target distortion mu.

    ``constant`` is a tunable, not a derived quantity; the scaling in d and mu
    is the part with theoretical backing.
    """
    if not (0 < mu < 1):
        raise ParameterError("target distortion mu must lie in (0, 1)")
    if d < 1:
        raise ParameterError("d must be at least 1")
    return math.ceil(constant * mu**-2 * d * math.log(max(d, 2)))


def jl_project(a, r: int, seed) -> np.ndarray:
    """Plain (non-private) JL sketch with the law of ``S A``, S r-by-n with N(0,1) entries.

    Drawn as ``G (A^T A)^{1/2}`` from the thin SVD of ``A``; ``S`` is never
    formed.
    """
    _, s, v = svd(a)
    return _gaussian_times_root(v, s, r, seed)


def private_jl_sketch(data: "DataMatrix | np.ndarray", cfg: JlConfig) -> "tuple[np.ndarray, JlReleaseMeta]":
    """Release a private JL sketch of ``A = [X | y]``.

    Runs the noisy rank test. On success the release has the law of ``S A``,
    otherwise that of ``S [A; cQ]`` for the spectrally augmented matrix; both
    are drawn as ``sqrt(1 + c^2) G Q`` with ``Q = (A^T A)^{1/2}`` and ``G``
    an ``r x (d+1)`` Gaussian (``c = 0`` on success), so neither ``S`` nor
    the stacked matrix is formed. The output has shape ``r x (d+1)`` either
    way. ``G`` and the seed are discarded; only the returned matrix and
    metadata are safe to publish.

    Raises
    ------
    CertificationError
        If some row of ``A`` exceeds the declared bound.
    SingularSystemError
        If ``A`` is not of full column rank.
    """
    a = data.A if isinstance(data, DataMatrix) else as_matrix(data)
    b = cfg.bound.B
    if max_row_norm(a) > b * (1.0 + 1e-9):
        raise CertificationError(f"a row of A exceeds the declared bound B = {b:.6g}")
    n, d1 = a.shape

    w_sq = threshold_w_squared(cfg.bound, cfg.pp, cfg.r)
    _, s, v = svd(a)
    smax, smin = float(s[0]), float(s[-1])
    if n < d1 or smin <= smax * max(a.shape) * np.finfo(float).eps:
        raise SingularSystemError("A must have full column rank")

    lap_seed, proj_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    if noisy_rank_test(smin**2, w_sq, cfg.bound, cfg.pp, lap_seed):
        meta = JlReleaseMeta(
            branch="no-augment", w_squared=w_sq, c=0.0, r=cfg.r,
            epsilon=cfg.pp.epsilon, delta=cfg.pp.delta, B=b,
        )
        return _gaussian_times_root(v, s, cfg.r, proj_seed), meta

    # When the Laplace draw fails the test even though sigma_min >= w, c = 0
    # (appending zero rows) already satisfies sigma_min(Ahat) >= w.
    w = math.sqrt(w_sq)
    c = 0.0 if smin >= w else _augment_factor(smin, w)
    meta = JlReleaseMeta(
        branch="spectral-augment", w_squared=w_sq, c=c, r=cfg.r,
        epsilon=cfg.pp.epsilon, delta=cfg.pp.delta, B=b,
        utility_warning=(1.0 + c**2) > _UTILITY_WARN_FACTOR,
    )
    return math.sqrt(1.0 + c**2) * _gaussian_times_root(v, s, cfg.r, proj_seed), meta
