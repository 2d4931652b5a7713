"""Private sketches for l1 regression.

Two releases live here. The single-level illustration sketch reuses the
CountSketch pipeline with no signs. The multi-level weighted sketch stacks
``h_m + 1`` levels: level 0 is a CountMin-style pass over every row
(duplicated into ``s`` blocks of ``N' = N/s`` buckets), and every row enters
each level ``h = 1..h_m`` independently with probability ``1/b^h``; levels
``1..h_m-1`` have ``N`` buckets and the final, uniform level ``N_u``. A row
therefore touches at most ``s + h_m`` buckets, and about ``s + 1/(b-1)`` on
average. Both releases sum ``S [A; eta]`` (``eta`` Gaussian noise rows)
through ``countsketch.noised_bucket_release``, which walks ``A`` in row
chunks, adds each into one ``r x (d+1)`` accumulator and patches every
bucket to contain at least one noise row, so a release holds ``O(chunk + r
(d+1))`` floats beside ``A``, whatever ``n``. The illustration sketch draws
``S eta`` by its per-bucket law, as the CountSketch release does; the
multi-level release walks ``eta`` in chunks after ``A``, its noise rows
hashed like data rows and drawn and summed in row blocks, and draws each
chunk's memberships when the chunk is reached: ``s`` level-0 bucket maps,
each summed straight from the chunk's columns, and for each sampled level a
``Binomial(k, b^-h)`` count, a uniform subset of the chunk's ``k`` rows of
that size and a bucket for each, listed in one more map, so it costs what
its memberships cost, not ``h_m`` passes over every row. A chunk's
memberships are dropped before the next chunk's are drawn, so the release
holds one chunk's memberships and one noise block beside the sketch. Bucket
weights are ``b^h`` (level 0: ``1/s``) and are data oblivious, so releasing
them is free.

The multi-level release calibrates its noise to its footprint ``s + h_m``
(``mechanisms.bucket_sensitivity``, called in ``noised_bucket_release``):
``sigma = 2 B sqrt(s + h_m) / eps * sqrt(2 ln(1.25/delta))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .countsketch import noised_bucket_release, private_countsketch_l2
from .dataset import DataMatrix, certified_rows, max_row_norm  # noqa: F401  (hook site of perfbench/tracer.py)
from .errors import ParameterError
from .mechanisms import PrivacyParams, RowBound

# level_count multiplies once per level; refuse a b so close to 1 that
# log_b n exceeds this before looping.
_MAX_LEVELS = 10_000


def level_count(n: int, b: float) -> int:
    """Number of sampled levels ``h_m = max(1, ceil(log_b n))``, computed exactly."""
    if n < 1:
        raise ParameterError("n must be at least 1")
    if not b > 1:
        raise ParameterError("branching parameter b must exceed 1")
    if math.log(n) / math.log(b) > _MAX_LEVELS:
        raise ParameterError(f"log_b n exceeds {_MAX_LEVELS} levels at n = {n}, b = {b!r}; increase b")
    h = 1
    cap = b
    while cap < n:
        cap *= b
        h += 1
    return h


def l1_tail_bound(r: int, sigma: float) -> float:
    """Bound ``r * sigma`` on the l1 norm of r i.i.d. N(0, sigma^2) draws (holds w.p. >= 3/4)."""
    if r < 1:
        raise ParameterError("r must be at least 1")
    if not 0 <= sigma < math.inf:
        raise ParameterError(f"sigma must be nonnegative and finite, got {sigma}")
    return r * sigma


def illustration_sketch_private(
    data: "DataMatrix | np.ndarray",
    r: int,
    pp: PrivacyParams,
    bound: RowBound,
    seed,
) -> np.ndarray:
    """Single-level private l1 sketch: the CountSketch pipeline, unsigned.

    Noise rows are calibrated to sensitivity 2B exactly as in the l2
    release; the plan has no sign array, so every row enters its bucket as is.
    """
    return private_countsketch_l2(data, r, pp, bound, seed, signed=False)[0]


@dataclass(frozen=True)
class L1SketchConfig:
    """Parameters of the multi-level weighted l1 release.

    ``N`` buckets per level at levels ``0..h_m-1`` (``N`` divisible by the
    level-0 sparsity ``s``), ``N_u`` buckets at the uniform level (defaults
    to ``N``). Each row enters level ``h >= 1`` independently with
    probability ``1/b^h``. The noise is calibrated to sensitivity
    ``2 B sqrt(s + h_m)``, see module docs.
    """

    pp: PrivacyParams
    bound: RowBound
    seed: int
    N: int
    b: float = 2.0
    s: int = 1
    N_u: "int | None" = None

    def __post_init__(self):
        if not 1 < self.b < math.inf:
            raise ParameterError(f"branching parameter b must be finite and exceed 1, got {self.b!r}")
        if self.s < 1:
            raise ParameterError("level-0 sparsity s must be at least 1")
        if self.N < 1 or self.N % self.s != 0:
            raise ParameterError("N must be a positive multiple of s")
        if self.N_u is not None and self.N_u < 1:
            raise ParameterError("N_u must be positive")

    @property
    def uniform_buckets(self) -> int:
        return self.N if self.N_u is None else self.N_u


@dataclass(frozen=True)
class WeightedSketch:
    """A released multi-level sketch: rows, oblivious weights, and bookkeeping.

    ``rows`` is ``r x (d+1)`` with ``r = N*h_m + N_u`` (``N``, ``N_u`` of the
    config); level h occupies the row block ``[h*N, (h+1)*N)`` (the uniform
    level the final ``N_u`` rows).
    Everything here except the assignment diagnostics ``data_level_counts``,
    ``noise_coverage`` and ``max_data_memberships`` is safe to publish; the
    bucket assignments and the seed are already gone.
    """

    rows: np.ndarray
    weights: np.ndarray
    level_of: np.ndarray
    sigma: float
    h_m: int
    s: int
    noise_rows: int
    patched: int
    data_level_counts: np.ndarray = field(repr=False)
    noise_coverage: np.ndarray = field(repr=False)
    max_data_memberships: int = 0

    @property
    def r(self) -> int:
        return self.rows.shape[0]


def _level_buckets(rng: np.random.Generator, k: int, cfg: L1SketchConfig, h_m: int):
    """Bucket the ``k`` rows of one chunk of ``[A; eta]`` at every level.

    Level 0 is ``s`` maps ``(None, block)``, each placing every row of the
    chunk in row order. Level ``h = 1..h_m`` draws its size ``c_h ~
    Binomial(k, b^-h)``, then a uniform ``c_h``-subset of the chunk's rows
    (in no particular order) and a bucket for each: every row gets its own
    Bernoulli(``b^-h``) membership, independently of the other rows, levels
    and chunks. The sampled levels are concatenated in draw order into one
    map ``(rows, buckets)``; each level writes its own bucket range, so one
    ``bincount`` adds every bucket in the order separate per-level sums
    would. Returns the maps and the sizes ``c_1..c_h_m``.
    """
    N, s, b = cfg.N, cfg.s, cfg.b
    n_prime = N // s
    maps = [(None, block * n_prime + rng.integers(0, n_prime, size=k)) for block in range(s)]
    sizes, rows, buckets = [], [], []
    for h in range(1, h_m + 1):
        size = rng.binomial(k, b**-h)
        rows.append(rng.choice(k, size=size, replace=False, shuffle=False))
        width = N if h < h_m else cfg.uniform_buckets
        buckets.append(h * N + rng.integers(0, width, size=size))
        sizes.append(size)
    # one list and one concatenation alive at a time, not both of each
    rows = np.concatenate(rows)
    buckets = np.concatenate(buckets)
    return [*maps, (rows, buckets)], sizes


def private_l1_sketch(data: "DataMatrix | np.ndarray", cfg: L1SketchConfig) -> WeightedSketch:
    """Release the multi-level weighted l1 sketch of ``A = [X | y]``.

    Every row of ``[A; eta]`` lands in ``s`` distinct level-0 buckets (one
    per block of ``N'`` buckets), in at most one bucket per sampled level
    ``1..h_m-1``, and in at most one uniform-level bucket, so a single row
    touches at most ``s + h_m`` buckets. Each chunk's sampled levels draw
    only their members (``_level_buckets``), so the work follows the about
    ``(n + p)(s + 1/(b-1))`` memberships, and the data rows' diagnostics are
    summed (level counts) or maxed (memberships) over the data chunks.
    Buckets that absorbed no noise row get one dedicated extra noise row.
    Rows come from ``certified_rows`` (``CertificationError`` on a row over
    ``B``); a ``DataMatrix`` certified at ``B' <= B`` is not scanned again.
    """
    a = certified_rows(data, cfg.bound)
    n = a.shape[0]

    h_m = level_count(n, cfg.b)
    N, N_u, s, b = cfg.N, cfg.uniform_buckets, cfg.s, cfg.b
    r = N * h_m + N_u

    data_level_counts = np.zeros(h_m + 1, dtype=np.int64)
    most = 0  # sampled levels a data row sits in, at most

    def assign(seed, chunks):
        nonlocal most
        rng = np.random.default_rng(seed)
        for start, k in chunks:
            maps, sizes = _level_buckets(rng, k, cfg, h_m)
            if start < n:  # a data chunk: every row sits in every level-0 block
                data_level_counts[0] += k
                data_level_counts[1:] += sizes
                most = max(most, int(np.bincount(maps[-1][0], minlength=1).max()))  # rows within a level are distinct
            yield maps, None
            del maps  # dead before the next chunk's memberships are drawn

    rows, noise = noised_bucket_release(a, r, s + h_m, cfg.pp, cfg.bound, cfg.seed, assign)

    level_of = np.concatenate(
        [np.repeat(np.arange(h_m), N), np.full(N_u, h_m)]
    ).astype(int)
    weights = np.where(level_of == 0, 1.0 / s, np.power(b, level_of.astype(float)))

    return WeightedSketch(
        rows=rows,
        weights=weights,
        level_of=level_of,
        sigma=noise.sigma,
        h_m=h_m,
        s=s,
        noise_rows=noise.p,
        patched=noise.patched,
        data_level_counts=data_level_counts,
        noise_coverage=noise.coverage,
        max_data_memberships=s + most,
    )
