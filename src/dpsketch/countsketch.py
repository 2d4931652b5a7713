"""CountSketch plans, the bucket-sum kernel and the noised hashed releases.

The private releases append a block ``eta`` of Gaussian noise rows to ``A``
and hash the rows of ``[A; eta]`` into buckets. One kernel, ``bucket_sum``,
serves the three hashed releases: it sums a list of bucket maps block by
block, so the stack is never formed, and an unsigned release passes no sign
array. Each released bucket is a sum of data rows plus at least one noise
row: a bucket misses all ``p = ceil(r (ln r + 4))`` noise rows
(coupon-collector sizing) with probability ``(1 - 1/r)^p <= e^-4 / r``, so
they cover all r buckets with probability at least ``1 - e^-4``, and any
bucket still uncovered is patched with a dedicated extra noise row. Extra
Gaussian noise never weakens privacy, so coverage is unconditional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import DataMatrix, certified_rows, max_row_norm  # noqa: F401  (hook site of perfbench/tracer.py)
from .errors import ParameterError
from .linalg import as_matrix, sample_gaussian_matrix
from .mechanisms import PrivacyParams, RowBound, bucket_sensitivity, gaussian_sigma


@dataclass(frozen=True)
class CountSketchPlan:
    """One nonzero per input row: a bucket in [0, r) and a sign in {-1, +1}, or no sign (``None``)."""

    r: int
    bucket_of: np.ndarray
    sign_of: "np.ndarray | None"

    def __post_init__(self):
        buckets = np.asarray(self.bucket_of, dtype=np.intp)
        if self.r < 1:
            raise ParameterError("sketch must have at least one row")
        if buckets.ndim != 1:
            raise ParameterError("bucket map must be 1-d")
        if buckets.size and (buckets.min() < 0 or buckets.max() >= self.r):
            raise ParameterError("bucket indices out of range")
        object.__setattr__(self, "bucket_of", buckets)
        if self.sign_of is not None:
            signs = np.asarray(self.sign_of, dtype=float)
            if signs.shape != buckets.shape or not np.all(np.abs(signs) == 1.0):
                raise ParameterError("signs must be +1 or -1, one per input row")
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

    With ``signed=False`` the plan has no sign array (the l1 illustration sketch).
    """
    if n_inputs < 1:
        raise ParameterError("need at least one input row")
    if r < 1:
        raise ParameterError("sketch must have at least one row")
    rng = np.random.default_rng(seed)
    buckets = rng.integers(0, r, size=n_inputs)
    signs = rng.choice(np.array([-1.0, 1.0]), size=n_inputs) if signed else None
    return CountSketchPlan(r=r, bucket_of=buckets, sign_of=signs)


def bucket_sum(blocks, r: int, maps, signs=None) -> np.ndarray:
    """``out[buckets[t]] += signs[idx[t]] * M[idx[t]]`` for each map ``(idx, buckets)``.

    ``M`` is the row stack of ``blocks``. ``idx=None`` means every row of
    ``M`` in order, summed straight from the column without a gather.
    ``signs`` holds one sign per row of ``M`` (None: all +1) and is applied
    to each column before the maps are summed. One column of ``M`` is built
    at a time, into one buffer, so ``M`` itself is never formed; a column of
    a column-major block is read contiguously. ``np.bincount`` adds each
    bucket in row order, as ``np.add.at`` does, and each map is added onto
    zeros in list order. Where the maps write disjoint bucket ranges, as in
    every release here, the sums equal ``np.add.at`` over the maps in turn
    bit for bit.
    """
    out = np.zeros((r, blocks[0].shape[1]))
    col = np.empty(sum(len(block) for block in blocks))
    for k in range(out.shape[1]):
        np.concatenate([block[:, k] for block in blocks], out=col)
        if signs is not None:
            np.multiply(col, signs, out=col)
        for idx, buckets in maps:
            out[:, k] += np.bincount(buckets, weights=col if idx is None else col[idx], minlength=r)
    return out


def countsketch_apply(plan: CountSketchPlan, m) -> np.ndarray:
    """Apply a fixed plan: output row i sums ``sign[j] * M[j]`` over rows with bucket j = i."""
    a = as_matrix(m)
    if a.shape[0] != plan.n_inputs:
        raise ParameterError(
            f"plan covers {plan.n_inputs} input rows but matrix has {a.shape[0]}"
        )
    return bucket_sum((a,), plan.r, [(None, plan.bucket_of)], plan.sign_of)


def noise_row_count(r: int) -> int:
    """Coupon-collector noise sizing ``p = ceil(r (ln r + 4))``."""
    if r < 1:
        raise ParameterError("r must be at least 1")
    return math.ceil(r * (math.log(r) + 4.0))


def noised_bucket_release(a: np.ndarray, r: int, footprint: int, pp: PrivacyParams, bound: RowBound, seed, assign):
    """Sum ``[A; eta]`` into ``r`` buckets, ``eta`` ``noise_row_count(r)`` N(0, sigma^2 I) rows.

    The hashed releases' one calibration point: a row of ``A`` sits in at
    most ``footprint`` buckets, so ``sigma = gaussian_sigma(bucket_sensitivity(
    bound, footprint), pp)``, refused before anything is sized or drawn.
    ``assign(seed, n, p)`` places the ``n`` data rows and ``p`` noise rows. It
    returns a tuple that starts with ``bucket_sum``'s ``(maps, signs)``;
    entries after those are the caller's. A bucket's coverage is the number
    of noise rows the maps place in it; buckets that absorbed none get one
    dedicated extra noise row each. Returns the sketch, its ``NoisePlan``
    and the assignment, which must not be published.
    """
    sigma = gaussian_sigma(bucket_sensitivity(bound, footprint), pp)
    n, d1 = a.shape
    p = noise_row_count(r)
    noise_seed, assign_seed, patch_seed = np.random.SeedSequence(seed).spawn(3)
    eta = sample_gaussian_matrix(p, d1, sigma, noise_seed)
    assignment = assign(assign_seed, n, p)
    maps, signs = assignment[:2]
    sketch = bucket_sum((a, eta), r, maps, signs)

    coverage = sum(np.bincount(b[n:] if idx is None else b[idx >= n], minlength=r) for idx, b in maps)
    uncovered = np.flatnonzero(coverage == 0)
    if uncovered.size:
        # A sign flip leaves the Gaussian law unchanged, so patches are added as-is.
        sketch[uncovered] += sample_gaussian_matrix(uncovered.size, d1, sigma, patch_seed)
        coverage[uncovered] = 1
    return sketch, NoisePlan(p=p, sigma=sigma, coverage=coverage, patched=int(uncovered.size)), assignment


def private_countsketch_l2(
    data: "DataMatrix | np.ndarray",
    r: int,
    pp: PrivacyParams,
    bound: RowBound,
    seed,
    signed: bool = True,
) -> "tuple[np.ndarray, NoisePlan]":
    """Release a private CountSketch ``S [A; eta]`` for l2 regression.

    ``eta`` holds ``noise_row_count(r)`` rows of N(0, sigma^2 I) noise, with
    sigma calibrated to footprint 1 (sensitivity ``2B``: a changed row moves
    one bucket) by ``noised_bucket_release``. The bucket/sign plan and the
    seed are discarded, never serialized. Rows come from ``certified_rows``
    (``CertificationError`` on a row over ``B``); a ``DataMatrix`` certified
    at ``B' <= B`` is not scanned again.
    """
    a = certified_rows(data, bound)

    def assign(plan_seed, n, p):
        plan = draw_countsketch_plan(n + p, r, plan_seed, signed=signed)
        return [(None, plan.bucket_of)], plan.sign_of

    return noised_bucket_release(a, r, 1, pp, bound, seed, assign)[:2]
