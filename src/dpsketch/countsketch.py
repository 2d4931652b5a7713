"""CountSketch plans and the noise-augmented private l2 release.

The private release appends a block of Gaussian noise rows to ``A`` and
CountSketches the stack, so each released bucket is a signed sum of data
rows plus at least one noise row. The number of noise rows follows the
coupon-collector sizing ``p = ceil(r (ln r + 4))``; with that choice all r
buckets receive a noise row with probability at least ``1 - r e^-4``, and
any bucket still uncovered is patched with a dedicated extra noise row.
Extra Gaussian noise never weakens privacy, so coverage is unconditional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import DataMatrix, max_row_norm
from .errors import CertificationError, ParameterError
from .linalg import as_matrix
from .mechanisms import PrivacyParams, RowBound, countsketch_sensitivity, gaussian_sigma


@dataclass(frozen=True)
class CountSketchPlan:
    """One nonzero per input row: a bucket index in [0, r) and a sign in {-1, +1}."""

    r: int
    bucket_of: np.ndarray
    sign_of: np.ndarray

    def __post_init__(self):
        buckets = np.asarray(self.bucket_of, dtype=np.intp)
        signs = np.asarray(self.sign_of, dtype=float)
        if self.r < 1:
            raise ParameterError("sketch must have at least one row")
        if buckets.shape != signs.shape or buckets.ndim != 1:
            raise ParameterError("bucket and sign maps must be 1-d and equally long")
        if buckets.size and (buckets.min() < 0 or buckets.max() >= self.r):
            raise ParameterError("bucket indices out of range")
        if not np.all(np.abs(signs) == 1.0):
            raise ParameterError("signs must be +1 or -1")
        object.__setattr__(self, "bucket_of", buckets)
        object.__setattr__(self, "sign_of", signs)

    @property
    def n_inputs(self) -> int:
        return self.bucket_of.shape[0]


@dataclass(frozen=True)
class NoisePlan:
    """How a private CountSketch was noised: row counts and per-bucket coverage."""

    p: int  # noise rows drawn up front
    sigma: float
    coverage: np.ndarray  # noise rows absorbed per sketch row, after patch-up
    patched: int  # buckets that needed a dedicated extra noise row


def draw_countsketch_plan(n_inputs: int, r: int, seed, signed: bool = True) -> CountSketchPlan:
    """Sample a plan: buckets uniform over [0, r), signs uniform over {-1, +1}.

    With ``signed=False`` all signs are +1 (the l1 illustration sketch).
    """
    if n_inputs < 1:
        raise ParameterError("need at least one input row")
    if r < 1:
        raise ParameterError("sketch must have at least one row")
    rng = np.random.default_rng(seed)
    buckets = rng.integers(0, r, size=n_inputs)
    if signed:
        signs = rng.choice(np.array([-1.0, 1.0]), size=n_inputs)
    else:
        signs = np.ones(n_inputs)
    return CountSketchPlan(r=r, bucket_of=buckets, sign_of=signs)


def countsketch_apply(plan: CountSketchPlan, m) -> np.ndarray:
    """Apply a fixed plan: output row i sums ``sign[j] * M[j]`` over rows with bucket j = i."""
    a = as_matrix(m)
    if a.shape[0] != plan.n_inputs:
        raise ParameterError(
            f"plan covers {plan.n_inputs} input rows but matrix has {a.shape[0]}"
        )
    # bincount accumulates each bucket in input-row order, as np.add.at does,
    # so the sums are bit-identical to that reference.
    out = np.empty((plan.r, a.shape[1]))
    for k in range(a.shape[1]):
        out[:, k] = np.bincount(plan.bucket_of, weights=plan.sign_of * a[:, k], minlength=plan.r)
    return out


def noise_row_count(r: int) -> int:
    """Coupon-collector noise sizing ``p = ceil(r (ln r + 4))``."""
    if r < 1:
        raise ParameterError("r must be at least 1")
    return math.ceil(r * (math.log(r) + 4.0))


def private_countsketch_l2(
    data: "DataMatrix | np.ndarray",
    r: int,
    pp: PrivacyParams,
    bound: RowBound,
    seed,
    signed: bool = True,
    sigma_override: "float | None" = None,
) -> "tuple[np.ndarray, NoisePlan]":
    """Release a private CountSketch ``S [A; eta]`` for l2 regression.

    ``eta`` holds ``noise_row_count(r)`` rows of N(0, sigma^2 I) noise with
    ``sigma = gaussian_sigma(2B, pp)``; buckets that absorbed no noise row
    are patched with one dedicated extra noise row each. The bucket/sign
    plan and the seed are discarded, never serialized.

    ``sigma_override`` forces the noise level and exists for tests only
    (``0.0`` gives the zero-noise degenerate sketch, which is not private).
    """
    a = data.A if isinstance(data, DataMatrix) else as_matrix(data)
    if max_row_norm(a) > bound.B * (1.0 + 1e-9):
        raise CertificationError(f"a row of A exceeds the declared bound B = {bound.B:.6g}")
    n, d1 = a.shape
    sigma = gaussian_sigma(countsketch_sensitivity(bound), pp) if sigma_override is None else float(sigma_override)
    if sigma < 0:
        raise ParameterError("sigma override must be nonnegative")
    p = noise_row_count(r)

    noise_seed, plan_seed, patch_seed = np.random.SeedSequence(seed).spawn(3)
    eta = sigma * np.random.default_rng(noise_seed).standard_normal((p, d1))
    stacked = np.vstack([a, eta])
    plan = draw_countsketch_plan(n + p, r, plan_seed, signed=signed)
    sketch = countsketch_apply(plan, stacked)

    coverage = np.bincount(plan.bucket_of[n:], minlength=r)
    uncovered = np.flatnonzero(coverage == 0)
    if uncovered.size:
        # A sign flip leaves the Gaussian law unchanged, so patches are added as-is.
        extra = sigma * np.random.default_rng(patch_seed).standard_normal((uncovered.size, d1))
        sketch[uncovered] += extra
        coverage[uncovered] = 1
    return sketch, NoisePlan(p=p, sigma=sigma, coverage=coverage, patched=int(uncovered.size))
