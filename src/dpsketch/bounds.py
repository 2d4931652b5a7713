"""Analytic regularization-coefficient bounds and their Monte Carlo verifiers.

Every "log" in these bounds is the natural log; the underlying tail
arguments are stated in ln throughout (sketching literature sometimes means
log2, so this is worth saying once, prominently).

The Monte Carlo verifier draws its trials in batches, each from its own child
of the seed's ``SeedSequence``, on as many threads as the process may use;
the exceedance count depends on the seed alone, not on the CPU count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

_MIN_TRIALS = 100
# Variates per sampling batch (2 MiB of float64). A batch is drawn and reduced
# before its worker draws the next, so a verifier with W workers peaks at about
# W x _BATCH_CELLS floats, whatever the trial count.
_BATCH_CELLS = 1 << 18


@dataclass(frozen=True)
class BoundReport:
    """Outcome of checking one tail bound by sampling.

    The verdict allows two binomial standard deviations of slack above the
    nominal exceedance probability so claims that hold with large margins do
    not fail on sampling noise.
    """

    bound_name: str
    analytic_value: float
    trials: int
    exceedances: int
    threshold_prob: float

    @property
    def exceedance_rate(self) -> float:
        return self.exceedances / self.trials

    @property
    def verdict(self) -> str:
        slack = 2.0 * math.sqrt(self.threshold_prob / self.trials)
        return "pass" if self.exceedance_rate <= self.threshold_prob + slack else "fail"


def ridge_coeff_bound_l2(sigma: float, r: int, beta_aug) -> float:
    """l2 regularization bound ``13/(2 sqrt 2) * sigma * sqrt(r ln r) * ||beta_aug||_2``.

    ``sigma`` is the noise level of the release. The constant 13 is the
    evaluated form of ``sqrt(64 ln 16)`` from the Gaussian-tail argument
    behind the bound.
    """
    _check(sigma, r)
    beta = _finite_beta(beta_aug)
    return 13.0 / math.sqrt(8.0) * sigma * math.sqrt(r * math.log(r)) * float(np.linalg.norm(beta))


def l1_coeff_bound(sigma: float, r: int, beta_aug) -> float:
    """l1 regularization bound ``sigma * r ln r * ||beta_aug||_1``.

    ``sigma`` is the noise level of the release, single- or multi-level.
    """
    _check(sigma, r)
    beta = _finite_beta(beta_aug)
    return sigma * r * math.log(r) * float(np.abs(beta).sum())


def _check(sigma: float, r: int) -> None:
    if not (0 <= sigma < math.inf):
        raise ParameterError(f"sigma must be nonnegative and finite, got {sigma}")
    if r < 2:
        raise ParameterError("bounds need r >= 2 so that ln r > 0")


def _finite_beta(beta_aug) -> np.ndarray:
    """``beta_aug`` as a flat float array; a NaN or infinite entry is refused."""
    beta = np.asarray(beta_aug, dtype=float).reshape(-1)
    if not np.isfinite(beta).all():
        raise ParameterError("beta_aug must be finite")
    return beta


@dataclass(frozen=True)
class GaussianNoiseSpec:
    """Distribution of the noise statistic: ``rows`` i.i.d. N(0, sigma^2 I) noise
    rows multiplied into a fixed ``beta_aug``."""

    rows: int
    sigma: float
    beta_aug: np.ndarray

    def __post_init__(self):
        if self.rows < 1:
            raise ParameterError("need at least one noise row")
        if not 0 <= self.sigma < math.inf:
            raise ParameterError(f"sigma must be nonnegative and finite, got {self.sigma}")
        object.__setattr__(self, "beta_aug", _finite_beta(self.beta_aug))


def verify_tail_bound(
    spec: GaussianNoiseSpec,
    statistic: str,
    bound_value: float,
    threshold_prob: float,
    trials: int,
    seed,
    bound_name: str = "tail-bound",
) -> BoundReport:
    """Sample ``||eta beta_aug||`` repeatedly and count exceedances of the bound.

    ``statistic`` is ``"l1"`` or ``"l2"``. For a noise matrix ``eta`` of
    ``rows`` i.i.d. ``N(0, sigma^2 I)`` rows, ``eta @ beta_aug`` is
    ``N(0, sigma^2 ||beta_aug||^2 I)``; ``eta`` itself is never drawn. Its
    l2 norm is ``sigma ||beta_aug|| sqrt(chi2_rows)`` in law, so an l2 trial
    draws one chi-square variate with ``rows`` degrees of freedom. An l1
    trial draws the ``rows`` entries of the vector and sums their absolute
    values: that sum has no closed-form law.

    Trials are drawn in batches of about ``_BATCH_CELLS`` variates; batch
    ``i`` draws from the ``i``-th child of ``SeedSequence(seed)``. The
    batches are shared out round-robin among ``min(batches, usable CPUs)``
    threads, each summing the integer exceedance counts of its batches with
    numpy routines that release the interpreter lock; the threads are
    joined before this returns, and one worker runs in the calling thread.
    So the count depends on ``seed`` and the arguments only, not on the CPU
    count or the scheduling.
    """
    if statistic not in ("l1", "l2"):
        raise ParameterError("statistic must be 'l1' or 'l2'")
    if trials < _MIN_TRIALS:
        raise ParameterError(f"need at least {_MIN_TRIALS} trials, got {trials}")
    if not (0 < threshold_prob < 1):
        raise ParameterError("threshold_prob must lie in (0, 1)")
    if math.isnan(bound_value):
        raise ParameterError("bound_value is NaN: no sample can exceed it")
    root = np.random.SeedSequence(seed)
    scale = spec.sigma * float(np.linalg.norm(spec.beta_aug))
    size = max(1, _BATCH_CELLS // spec.rows) if statistic == "l1" else _BATCH_CELLS
    batches = -(-trials // size)
    workers = min(batches, _usable_cpus())

    def exceedances(i: int) -> int:
        # The i-th child of root, as root.spawn would build it, made on demand
        # so that no list of children grows with the trial count.
        rng = np.random.default_rng(np.random.SeedSequence(root.entropy, spawn_key=(i,)))
        count = min(size, trials - i * size)
        if statistic == "l1":
            stats = rng.standard_normal((count, spec.rows))
            stats *= scale
            stats = np.abs(stats, out=stats).sum(axis=1)
        else:
            stats = rng.chisquare(spec.rows, size=count)
            np.sqrt(stats, out=stats)
            stats *= scale
        return int(np.count_nonzero(stats >= bound_value))

    def worker(first: int) -> int:
        return sum(exceedances(i) for i in range(first, batches, workers))

    if workers == 1:
        exceed = worker(0)
    else:
        with ThreadPoolExecutor(workers) as pool:
            exceed = sum(pool.map(worker, range(workers)))
    return BoundReport(
        bound_name=bound_name,
        analytic_value=float(bound_value),
        trials=trials,
        exceedances=exceed,
        threshold_prob=threshold_prob,
    )


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1
