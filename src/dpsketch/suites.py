"""Named Monte Carlo verification suites behind ``dpsketch verify``.

Tail-bound suites interpret ``trials`` as the number of noise draws;
distortion and approximation suites interpret it as the number of sketch
seeds. Every suite returns BoundReports whose verdicts allow binomial slack,
so a suite passes exactly when the claimed probability holds empirically.
"""

from __future__ import annotations

import math

import numpy as np

from . import solvers
from .bounds import (
    BoundReport,
    GaussianNoiseSpec,
    l1_coeff_bound,
    ridge_coeff_bound_l2,
    verify_tail_bound,
)
from .countsketch import countsketch_apply, draw_countsketch_plan, noise_row_count
from .dataset import synthetic_regression
from .jl import gaussian_times_root, gram_root, jl_project  # noqa: F401  (hook site of perfbench/tracer.py)
from .l1 import l1_tail_bound
from .mechanisms import PrivacyParams, RowBound, countsketch_sensitivity, gaussian_sigma
from .solvers import SketchProblem, solve_l2_sketch
from .solvers import approximation_ratio  # noqa: F401  (hook site of perfbench/tracer.py)

# Shared probe direction for the tail suites; unit l2 norm, fixed across runs.
_DIRECTION = np.array([1.0, 2.0, -1.0, 0.5, -3.0])
_DIRECTION = _DIRECTION / np.linalg.norm(_DIRECTION)

_PP = PrivacyParams(1.0, 0.05)
_B = RowBound(1.0)


def _stated_rows(r: int) -> int:
    """Noise-row count ``ceil(r ln r)`` at which the regularization bounds are stated."""
    return math.ceil(r * math.log(r))


def _tail_reports(cases, trials: int, seed: int) -> "list[BoundReport]":
    """Check each ``(name, statistic, rows, sigma, beta_aug, bound)`` case at
    exceedance threshold 1/4, the i-th case with seed ``seed + i``."""
    return [
        verify_tail_bound(
            GaussianNoiseSpec(rows=rows, sigma=sigma, beta_aug=beta_aug),
            statistic, bound, 0.25, trials, seed + i, bound_name=name,
        )
        for i, (name, statistic, rows, sigma, beta_aug, bound) in enumerate(cases)
    ]


def suite_lemma1(trials: int = 10_000, seed: int = 0) -> "list[BoundReport]":
    """l1 norm of r i.i.d. N(0, sigma^2) draws stays below r*sigma w.p. >= 3/4."""
    cases = [
        (f"lemma1[r={r},sigma={sigma:g}]", "l1", r, sigma, np.array([1.0]), l1_tail_bound(r, sigma))
        for r, sigma in [(10, 1.0), (50, 1.0), (50, 3.0)]
    ]
    return _tail_reports(cases, trials, seed)


def suite_thm1(trials: int = 10_000, seed: int = 0) -> "list[BoundReport]":
    """l2 tail of the CountSketch noise block, for the stated and the implemented
    noise-row counts (the implementation deliberately over-noises)."""
    sigma = gaussian_sigma(countsketch_sensitivity(_B), _PP)
    cases = [
        (f"thm1[r={r},p={label}:{p}]", "l2", p, sigma, _DIRECTION,
         ridge_coeff_bound_l2(sigma, r, _DIRECTION))
        for r in (16, 64)
        for label, p in (("stated", _stated_rows(r)), ("implemented", noise_row_count(r)))
    ]
    return _tail_reports(cases, trials, seed)


def suite_lemma2(trials: int = 10_000, seed: int = 0) -> "list[BoundReport]":
    """l1 tail of the single-level noise block against the l1 bound.

    The l1 statistic and ``l1_coeff_bound`` are both linear in sigma, so
    their ratio does not depend on it: this check at the CountSketch sigma
    covers every l1 calibration, the multi-level one included.
    """
    sigma = gaussian_sigma(countsketch_sensitivity(_B), _PP)
    cases = []
    for r in (16, 64):
        p = _stated_rows(r)
        bound = l1_coeff_bound(sigma, r, _DIRECTION)
        cases.append((f"lemma2[r={r},p={p}]", "l1", p, sigma, _DIRECTION, bound))
    return _tail_reports(cases, trials, seed)


def _bartlett_factor(k: int, dof: int, rng: np.random.Generator) -> np.ndarray:
    """Lower-triangular ``L`` with ``L L^T ~ Wishart_k(dof, I)`` (Bartlett).

    ``L_ii = sqrt(chi2(dof - i))`` for ``i = 0..k-1`` and ``L_ij ~ N(0, 1)``
    below the diagonal, all independent: ``k (k + 1) / 2`` variates for the
    law of ``G^T G`` with ``G`` a ``dof x k`` matrix of N(0, 1) entries.
    """
    factor = np.diag(np.sqrt(rng.chisquare(dof - np.arange(k))))
    factor[np.tril_indices(k, -1)] = rng.standard_normal(k * (k - 1) // 2)
    return factor


def suite_jl_distortion(trials: int = 200, seed: int = 0) -> "list[BoundReport]":
    """Scaled projection norms ||Sv||^2 / r stay within [0.65, 1.35] for >= 95%
    of (seed, vector) pairs; 20 unit vectors in R^200, r = 1000.

    The rows of ``S V`` are iid ``N(0, V^T V)``, the law ``jl_project`` draws
    as ``G Q`` with ``Q = (V^T V)^{1/2}``. The norms ``||G Q e_j||^2`` depend
    on ``G`` only through ``G^T G = L L^T``, a Wishart matrix, so each trial
    draws the Bartlett factor ``L`` (210 variates) and takes
    ``||L^T Q e_j||^2``: the exact joint law of the 20 norms, and no
    ``r x 20`` matrix is drawn.
    """
    r, dim, n_vectors = 1000, 200, 20
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((dim, n_vectors))
    vectors /= np.linalg.norm(vectors, axis=0)
    root = gram_root(vectors)
    outside = 0
    for i in range(trials):
        factor = _bartlett_factor(n_vectors, r, np.random.default_rng(np.random.SeedSequence([seed, i])))
        scaled = (np.linalg.norm(factor.T @ root, axis=0) ** 2) / r
        outside += int(((scaled < 0.65) | (scaled > 1.35)).sum())
    return [
        BoundReport(
            bound_name=f"jl-distortion[r={r},dim={dim}]",
            analytic_value=0.35,
            trials=trials * n_vectors,
            exceedances=outside,
            threshold_prob=0.05,
        )
    ]


def _embedding_ratios(sa: np.ndarray, vs: np.ndarray, base: np.ndarray) -> np.ndarray:
    """``||SA v|| / base`` for each column ``v`` of ``vs``.

    ``||SA v||^2 = v^T G v`` with the (d+1) x (d+1) Gram ``G = (SA)^T SA``,
    so the r x n_vectors product ``SA @ vs`` is never formed."""
    return np.sqrt(np.einsum("ij,ij->j", vs, (sa.T @ sa) @ vs)) / base


def suite_cs_embedding(trials: int = 100, seed: int = 0) -> "list[BoundReport]":
    """CountSketch subspace-embedding check: ||SAv|| / ||Av|| in [0.5, 1.5]
    for >= 90% of directions across plans; n = 5000, d = 5, r = 2500."""
    n, d1, r, n_vectors = 5000, 6, 2500, 100
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, d1))
    vs = rng.standard_normal((d1, n_vectors))
    base = np.linalg.norm(a @ vs, axis=0)
    outside = 0
    for i in range(trials):
        plan = draw_countsketch_plan(n, r, np.random.SeedSequence([seed, i]))
        ratios = _embedding_ratios(countsketch_apply(plan, a), vs, base)
        outside += int(((ratios < 0.5) | (ratios > 1.5)).sum())
    return [
        BoundReport(
            bound_name=f"cs-embedding[n={n},r={r}]",
            analytic_value=0.5,
            trials=trials * n_vectors,
            exceedances=outside,
            threshold_prob=0.10,
        )
    ]


def suite_approx_ratio(trials: int = 100, seed: int = 0) -> "list[BoundReport]":
    """Non-private JL sketch-and-solve: median l2 approximation ratio <= 1.5
    at r = ceil(50 d ln d), d = 5.

    The data is fixed across trials, so its exact least-squares loss is
    solved once, before the trials; each trial scores its sketched solution
    against it by the rule of ``approximation_ratio``.
    """
    n, d = 5000, 5
    r = math.ceil(50 * d * math.log(d))
    data = synthetic_regression(n, d, seed=seed, noise=0.1, beta_scale=1.0)
    root = gram_root(data.A)
    # Called through the module so the traced benchmark times the exact solve.
    loss_star = solvers.exact_l2_solution(data).sketch_loss
    over = 0
    for i in range(trials):
        sketch = gaussian_times_root(root, r, np.random.SeedSequence([seed, i]))
        sol = solve_l2_sketch(SketchProblem(sketch))
        residual = data.X @ sol.beta - data.y
        report = solvers._ratio_report(float(residual @ residual), loss_star)
        if report.kind != "ratio" or report.value > 1.5:
            over += 1
    return [
        BoundReport(
            bound_name=f"approx-ratio[l2,r={r}]",
            analytic_value=1.5,
            trials=trials,
            exceedances=over,
            threshold_prob=0.5,
        )
    ]


SUITES = {
    "jl-distortion": suite_jl_distortion,
    "cs-embedding": suite_cs_embedding,
    "thm1": suite_thm1,
    "lemma1": suite_lemma1,
    "lemma2": suite_lemma2,
    "approx-ratio": suite_approx_ratio,
}
