"""Private sketches for l1 regression.

Two releases live here. The single-level illustration sketch reuses the
CountSketch pipeline with all signs +1. The multi-level weighted sketch
stacks ``h_m + 1`` levels: level 0 is a CountMin-style pass over every row
(duplicated into ``s`` blocks of ``N' = N/s`` buckets), levels ``1..h_m-1``
subsample rows with geometrically decaying probabilities ``1/b^h``, and the
final level is a uniform subsample at rate ``1/b^h_m``. Bucket weights are
``b^h`` (level 0: ``1/s``) and are data oblivious, so releasing them is
free. Gaussian noise rows are appended to the data before sketching and
every bucket is patched to contain at least one noise row.

Noise calibration defaults to ``sigma = 2 B h_m / eps * sqrt(2 ln(1.25/delta))``,
the larger of the two calibrations consistent with a row appearing in at
most ``h_m`` sampled buckets; ``sigma_scaling="sqrt_hm"`` selects the
``2 B sqrt(h_m)`` sensitivity reading instead. The release metadata records
which one was used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .countsketch import noise_row_count, private_countsketch_l2
from .dataset import DataMatrix, max_row_norm
from .errors import CertificationError, ParameterError
from .linalg import as_matrix
from .mechanisms import PrivacyParams, RowBound, gaussian_sigma


def level_count(n: int, b: float) -> int:
    """Number of sampled levels ``h_m = max(1, ceil(log_b n))``, computed exactly."""
    if n < 1:
        raise ParameterError("n must be at least 1")
    if not b > 1:
        raise ParameterError("branching parameter b must exceed 1")
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
    if sigma < 0:
        raise ParameterError("sigma must be nonnegative")
    return r * sigma


def suggested_l1_rows(d: int, n: int, c: float = 1.0, constant: float = 1.0) -> int:
    """Asymptotic sketch-size guidance ``ceil(C * d^(1+c) * ln(n)^(3+5c))``, 0 < c <= 1.

    This grows very quickly in n; it is guidance about scaling, not a
    practical default. ``constant`` is a documented tunable.
    """
    if d < 1 or n < 2:
        raise ParameterError("need d >= 1 and n >= 2")
    if not (0 < c <= 1):
        raise ParameterError("c must lie in (0, 1]")
    return math.ceil(constant * d ** (1.0 + c) * math.log(n) ** (3.0 + 5.0 * c))


def illustration_sketch_private(
    data: "DataMatrix | np.ndarray",
    r: int,
    pp: PrivacyParams,
    bound: RowBound,
    seed,
    sigma_override: "float | None" = None,
) -> np.ndarray:
    """Single-level private l1 sketch: CountSketch pipeline with all signs +1.

    Noise rows are calibrated to sensitivity 2B exactly as in the l2
    release; only the signs differ. ``sigma_override`` is for tests only.
    """
    sketch, _ = private_countsketch_l2(
        data, r, pp, bound, seed, signed=False, sigma_override=sigma_override
    )
    return sketch


@dataclass(frozen=True)
class L1SketchConfig:
    """Parameters of the multi-level weighted l1 release.

    ``N`` buckets per level at levels ``0..h_m-1`` (``N`` divisible by the
    level-0 sparsity ``s``), ``N_u`` buckets at the uniform level (defaults
    to ``N``). ``level_assignment`` chooses between independent Bernoulli
    inclusion per level (default) and a single categorical level draw per
    row. ``sigma_scaling`` is ``"hm"`` or ``"sqrt_hm"``, see module docs.
    """

    pp: PrivacyParams
    bound: RowBound
    seed: int
    N: int
    b: float = 2.0
    s: int = 1
    N_u: "int | None" = None
    level_assignment: str = "bernoulli"
    sigma_scaling: str = "hm"

    def __post_init__(self):
        if not self.b > 1:
            raise ParameterError("branching parameter b must exceed 1")
        if self.s < 1:
            raise ParameterError("level-0 sparsity s must be at least 1")
        if self.N < 1 or self.N % self.s != 0:
            raise ParameterError("N must be a positive multiple of s")
        if self.N_u is not None and self.N_u < 1:
            raise ParameterError("N_u must be positive")
        if self.level_assignment not in ("bernoulli", "categorical"):
            raise ParameterError("level_assignment must be 'bernoulli' or 'categorical'")
        if self.sigma_scaling not in ("hm", "sqrt_hm"):
            raise ParameterError("sigma_scaling must be 'hm' or 'sqrt_hm'")

    @property
    def uniform_buckets(self) -> int:
        return self.N if self.N_u is None else self.N_u


@dataclass(frozen=True)
class WeightedSketch:
    """A released multi-level sketch: rows, oblivious weights, and bookkeeping.

    ``rows`` is ``r x (d+1)`` with ``r = N*h_m + N_u``; level h occupies the
    row block ``[h*N, (h+1)*N)`` (the uniform level the final ``N_u`` rows).
    Everything here except ``coverage-style`` diagnostics is safe to publish;
    the bucket assignments and the seed are already gone.
    """

    rows: np.ndarray
    weights: np.ndarray
    level_of: np.ndarray
    sigma: float
    h_m: int
    b: float
    s: int
    N: int
    N_u: int
    noise_rows: int
    patched: int
    sigma_scaling: str
    data_level_counts: np.ndarray = field(repr=False)
    noise_coverage: np.ndarray = field(repr=False)
    max_data_memberships: int = 0

    @property
    def r(self) -> int:
        return self.rows.shape[0]


def _bucket_add(out: np.ndarray, buckets: np.ndarray, source: np.ndarray, idx: np.ndarray) -> None:
    """``out[buckets[i]] += source[idx[i]]``, one ``np.bincount`` per column.

    Each bucket is summed in order of ``i``, as ``np.add.at`` does, without
    gathering ``source[idx]`` as a whole. The result equals ``np.add.at``
    bit for bit where ``out`` is still zero at the buckets written, which
    holds in the release: its levels and level-0 blocks write disjoint
    bucket ranges of a zeroed output.
    """
    for j in range(out.shape[1]):
        out[:, j] += np.bincount(buckets, weights=source[idx, j], minlength=out.shape[0])


def private_l1_sketch(
    data: "DataMatrix | np.ndarray",
    cfg: L1SketchConfig,
    sigma_override: "float | None" = None,
) -> WeightedSketch:
    """Release the multi-level weighted l1 sketch of ``A = [X | y]``.

    Every row of ``[A; eta]`` lands in ``s`` distinct level-0 buckets (one
    per block of ``N'`` buckets), in at most one bucket per sampled level
    ``1..h_m-1``, and in at most one uniform-level bucket, so a single row
    touches at most ``s + h_m`` buckets. Buckets that absorbed no noise row
    get one dedicated extra noise row. ``sigma_override`` forces the noise
    level and exists for tests only (``0.0`` is not private).
    """
    a = data.A if isinstance(data, DataMatrix) else as_matrix(data)
    B = cfg.bound.B
    if max_row_norm(a) > B * (1.0 + 1e-9):
        raise CertificationError(f"a row of A exceeds the declared bound B = {B:.6g}")
    n, d1 = a.shape

    h_m = level_count(n, cfg.b)
    N, N_u, s, b = cfg.N, cfg.uniform_buckets, cfg.s, cfg.b
    if cfg.level_assignment == "categorical" and sum(b**-h for h in range(1, h_m)) > 1.0:
        raise ParameterError("categorical level assignment needs sum_h 1/b^h <= 1; increase b")
    r = N * h_m + N_u
    factor = float(h_m) if cfg.sigma_scaling == "hm" else math.sqrt(h_m)
    sigma = gaussian_sigma(2.0 * B * factor, cfg.pp) if sigma_override is None else float(sigma_override)
    if sigma < 0:
        raise ParameterError("sigma override must be nonnegative")

    p = noise_row_count(r)
    noise_seed, assign_seed, patch_seed = np.random.SeedSequence(cfg.seed).spawn(3)
    eta = sigma * np.random.default_rng(noise_seed).standard_normal((p, d1))
    stacked = np.vstack([a, eta])
    m = n + p

    rows_out = np.zeros((r, d1))
    noise_cover = np.zeros(r, dtype=int)
    data_level_counts = np.zeros(h_m + 1, dtype=int)
    memberships = np.zeros(m, dtype=int)
    rng = np.random.default_rng(assign_seed)

    def accumulate(global_buckets: np.ndarray, source_idx: np.ndarray) -> None:
        _bucket_add(rows_out, global_buckets, stacked, source_idx)
        noise_cover[:] += np.bincount(global_buckets[source_idx >= n], minlength=r)
        memberships[source_idx] += 1

    # Level 0: every row goes into one uniform bucket of each of the s blocks.
    all_idx = np.arange(m)
    n_prime = N // s
    for block in range(s):
        picks = rng.integers(0, n_prime, size=m)
        accumulate(block * n_prime + picks, all_idx)
    data_level_counts[0] = n

    # Sampled levels 1..h_m-1.
    if cfg.level_assignment == "bernoulli":
        for h in range(1, h_m):
            mask = rng.random(m) < b**-h
            idx = np.flatnonzero(mask)
            if idx.size:
                picks = rng.integers(0, N, size=idx.size)
                accumulate(h * N + picks, idx)
            data_level_counts[h] = int((idx < n).sum())
    else:
        probs = np.array([b**-h for h in range(1, h_m)])
        u = rng.random(m)
        edges = np.concatenate([[0.0], np.cumsum(probs)])
        for h in range(1, h_m):
            idx = np.flatnonzero((u >= edges[h - 1]) & (u < edges[h]))
            if idx.size:
                picks = rng.integers(0, N, size=idx.size)
                accumulate(h * N + picks, idx)
            data_level_counts[h] = int((idx < n).sum())

    # Uniform sampling level h_m.
    mask = rng.random(m) < b**-h_m
    idx = np.flatnonzero(mask)
    if idx.size:
        picks = rng.integers(0, N_u, size=idx.size)
        accumulate(h_m * N + picks, idx)
    data_level_counts[h_m] = int((idx < n).sum())

    # Patch-up: every bucket must hold at least one noise row.
    uncovered = np.flatnonzero(noise_cover == 0)
    if uncovered.size:
        extra = sigma * np.random.default_rng(patch_seed).standard_normal((uncovered.size, d1))
        rows_out[uncovered] += extra
        noise_cover[uncovered] = 1

    level_of = np.concatenate(
        [np.repeat(np.arange(h_m), N), np.full(N_u, h_m)]
    ).astype(int)
    weights = np.where(level_of == 0, 1.0 / s, np.power(b, level_of.astype(float)))

    return WeightedSketch(
        rows=rows_out,
        weights=weights,
        level_of=level_of,
        sigma=sigma,
        h_m=h_m,
        b=b,
        s=s,
        N=N,
        N_u=N_u,
        noise_rows=p,
        patched=int(uncovered.size),
        sigma_scaling=cfg.sigma_scaling,
        data_level_counts=data_level_counts,
        noise_coverage=noise_cover,
        max_data_memberships=int(memberships[:n].max()),
    )
