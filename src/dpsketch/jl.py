"""Private Johnson-Lindenstrauss release.

The release pipeline: a noisy test decides whether the smallest singular
value of ``A`` clears a privacy threshold ``w``. If it does, the released
sketch has the law of ``S A`` for a Gaussian ``S``. Otherwise ``A`` is
augmented with ``c Q`` where ``Q = V Sigma V^T``, which scales every singular
value by the same factor until the smallest reaches ``w``, and the release
has the law of ``S [A; cQ]``. Unlike appending ``w I``, the scaling route
keeps the sketched problem an unregularized least-squares problem.

``S`` is never formed, and neither is ``Q``. Each row of ``S M`` is an
independent ``N(0, M^T M)`` draw, so ``G F`` has the law of ``S A`` for any
``F`` with ``F^T F = A^T A`` and ``G`` an ``r x (d+1)`` matrix of N(0, 1)
entries. The release takes ``F = R``, the ``(d+1) x (d+1)`` R factor of
``A`` (``linalg.tall_skinny_r``), and ``[A; cQ]^T [A; cQ] = (1 + c^2) R^T R``
makes ``sqrt(1 + c^2) G R`` a draw of ``S [A; cQ]``: an ``r x (d+1)`` draw
instead of an ``r x n`` one. The privacy analysis of the JL release depends
only on this law. ``sigma_min`` for the noisy test is the smallest singular
value of R, which ``A`` shares; ``linalg.svd`` gives singular values only,
and no singular vector is used. The blocked QR reads one fixed-size group
of rows at a time and folds it into one running ``(d+1) x (d+1)`` R, so beyond
``A`` the release needs one group and memory of the sketch's order, not of
``n`` (0.59 MB at 200k or 1e6 rows of 11 columns, ``r = 256``).

The entries are unscaled N(0, 1); the argmin of the sketched problem is
invariant to scaling, so the conventional ``1/sqrt(r)`` factor is applied
only inside distortion diagnostics, never to the release. ``G`` and the seed
are never part of the release: privacy rests on their secrecy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import DataMatrix, certified_rows, max_row_norm  # noqa: F401  (hook site of perfbench/tracer.py)
from .errors import ParameterError, SingularSystemError
from .linalg import as_matrix, sample_gaussian_matrix, sample_laplace, svd, tall_skinny_r
from .mechanisms import PrivacyParams, RowBound, finite_calibration

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
    utility_warning: bool = False


def threshold_w_squared(bound: RowBound, pp: PrivacyParams, r: int) -> float:
    """Privacy threshold w^2 = 8B^2/eps * (sqrt(2 r ln(8/delta)) + 2 ln(8/delta))."""
    if r < 1:
        raise ParameterError("r must be at least 1")
    log_term = math.log(8.0 / pp.delta)
    return finite_calibration(
        "threshold w^2",
        lambda: 8.0 * bound.B**2 / pp.epsilon * (math.sqrt(2.0 * r * log_term) + 2.0 * log_term),
    )


def noisy_rank_test(sigma_min_sq: float, w_sq: float, bound: RowBound, pp: PrivacyParams, seed) -> bool:
    """Laplace-noised comparison of sigma_min(A)^2 against the privacy threshold.

    Draws ``Z ~ Laplace(4B^2/eps)`` and returns whether
    ``sigma_min_sq > w_sq + Z + 4B^2 ln(1/delta)/eps``. Ties lose: equality
    routes to the augmentation branch.
    """
    if sigma_min_sq < 0:
        raise ParameterError("sigma_min_sq must be nonnegative")
    z = sample_laplace(finite_calibration("Laplace scale", lambda: 4.0 * bound.B**2 / pp.epsilon), seed)
    margin = 4.0 * bound.B**2 * math.log(1.0 / pp.delta) / pp.epsilon
    return sigma_min_sq > w_sq + z + margin


def _full_rank_spectrum(a: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """The R factor of ``a`` and its singular values ``s`` (descending), which ``a`` shares.

    ``a`` must be finite. Raises ``SingularSystemError`` unless ``a`` is tall
    with full column rank.
    """
    if a.shape[0] < a.shape[1]:
        raise SingularSystemError("a wide matrix cannot have full column rank")
    r_factor = tall_skinny_r(a)
    s = svd(r_factor)
    if s[-1] <= s[0] * max(a.shape) * np.finfo(float).eps:
        raise SingularSystemError("A must have full column rank")
    return r_factor, s


def _augment_factor(smin: float, w: float) -> float:
    """``c = sqrt(w^2 / sigma_min^2 - 1)``, clamped at 0."""
    return math.sqrt(max(w**2 / smin**2 - 1.0, 0.0))


def gaussian_times_root(root: np.ndarray, r: int, seed) -> np.ndarray:
    """``G F`` for ``F = root`` and ``G`` an r-row matrix of N(0, 1) entries.

    For any ``F`` with ``F^T F = A^T A`` (the R factor of ``A`` here) the
    rows of ``G F`` are iid ``N(0, A^T A)``: the law of the rows of ``S A``
    for an r-by-n Gaussian ``S``, which is never formed. Draws for many
    seeds share one ``F``.
    """
    return sample_gaussian_matrix(r, root.shape[0], 1.0, seed) @ root


def jl_project(a, r: int, seed) -> np.ndarray:
    """Plain (non-private) JL sketch with the law of ``S A``, S r-by-n with N(0,1) entries.

    Drawn as ``G R`` with ``R`` the R factor of ``A``; any ``F`` with
    ``F^T F = A^T A`` would do. Neither ``S`` nor ``Q`` is formed.
    """
    return gaussian_times_root(tall_skinny_r(as_matrix(a)), r, seed)


def private_jl_sketch(data: "DataMatrix | np.ndarray", cfg: JlConfig) -> "tuple[np.ndarray, JlReleaseMeta]":
    """Release a private JL sketch of ``A = [X | y]``.

    Runs the noisy rank test. On success the release has the law of ``S A``,
    otherwise that of ``S [A; cQ]`` for the spectrally augmented matrix; both
    are drawn as ``sqrt(1 + c^2) G R`` with ``R`` the R factor of ``A`` and
    ``G`` an ``r x (d+1)`` Gaussian (``c = 0`` on success), so neither ``S``
    nor the stacked matrix is formed. The output has shape ``r x (d+1)`` either
    way. ``G`` and the seed are discarded; only the returned matrix and
    metadata are safe to publish.

    Rows come from ``certified_rows``: a ``DataMatrix`` certified at
    ``B' <= B`` is not scanned again.

    Raises
    ------
    CertificationError
        If some row of ``A`` exceeds the declared bound.
    SingularSystemError
        If ``A`` is not of full column rank, or ``sigma_min(A)^2`` is too
        small for the augmentation factor ``c`` to be finite.
    """
    a = certified_rows(data, cfg.bound)
    w_sq = threshold_w_squared(cfg.bound, cfg.pp, cfg.r)
    r_factor, s = _full_rank_spectrum(a)
    smin, w = float(s[-1]), math.sqrt(w_sq)
    if smin**2 == 0.0 or math.isinf(w**2 / smin**2):
        raise SingularSystemError(
            f"sigma_min(A)^2 underflows in double precision (sigma_min(A) = {smin:.3g}); scale the data up towards B"
        )

    lap_seed, proj_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    passed = noisy_rank_test(smin**2, w_sq, cfg.bound, cfg.pp, lap_seed)
    # A failed test with sigma_min >= w gets c = 0 from the clamp: appending
    # zero rows already satisfies sigma_min(Ahat) >= w.
    c = 0.0 if passed else _augment_factor(smin, w)
    meta = JlReleaseMeta(
        branch="no-augment" if passed else "spectral-augment", w_squared=w_sq, c=c,
        utility_warning=(1.0 + c**2) > _UTILITY_WARN_FACTOR,
    )
    return math.sqrt(1.0 + c**2) * gaussian_times_root(r_factor, cfg.r, proj_seed), meta
