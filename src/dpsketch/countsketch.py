"""The CountSketch assignment, the bucket-sum kernel and the noised hashed releases.

The private releases are ``S [A; eta]``: ``eta`` holds ``p = ceil(r (ln r +
4))`` Gaussian noise rows (coupon-collector sizing), hashed into ``r``
buckets with the rows of ``A``. One kernel, ``bucket_sum``, serves the three
hashed releases: ``noised_bucket_release`` walks ``A`` in row chunks of
about ``_CHUNK_CELLS`` cells, draws each chunk's buckets and signs (or level
memberships) and adds the chunk into one ``r x (d+1)`` accumulator. The
CountSketch releases (``cs2``, and ``l1-illus`` without signs) draw their
buckets and signs with ``countsketch_assignment``, and a plan is the two
arrays of its first chunk, ``(buckets, signs)``: the assignment of a
release's first data rows at that release's assignment seed. There each
row of ``[A; eta]`` lands in one uniform bucket, and a sign flip leaves a
Gaussian row's law unchanged, so the noise in bucket ``b`` is exactly N(0,
c_b sigma^2 I) with ``c ~ Multinomial(p, 1/r)``: that law is drawn
directly, one Gaussian row per bucket, and ``eta`` never is.
The multi-level release places a noise row in several buckets, so it walks
``eta`` in chunks after ``A`` and hashes it like data, drawing and summing
each noise chunk in blocks of ``_NOISE_BLOCK_CELLS`` cells that continue one
generator's stream. Neither ``eta`` nor any per-row array is ever held
whole, so a release holds ``O(chunk + r (d+1))`` floats beside ``A``,
whatever ``n``; an unsigned release draws no signs. Each released bucket
carries at least one noise row: a bucket misses all ``p`` noise rows with
probability ``(1 - 1/r)^p <= e^-4 / r``, so they cover all r buckets with
probability at least ``1 - e^-4``, and any bucket still uncovered is patched
with a dedicated extra noise row. Extra Gaussian noise never weakens
privacy, so coverage is unconditional.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dataset import DataMatrix, certified_rows, max_row_norm  # noqa: F401  (hook site of perfbench/tracer.py)
from .errors import ParameterError
from .linalg import as_matrix, check_addressable, sample_gaussian_matrix
from .mechanisms import PrivacyParams, RowBound, bucket_sensitivity, gaussian_sigma

# A release sums [A; eta] in row chunks of this many cells (2 MiB of
# float64), and of at least r rows, so that a chunk's r-bucket sums cost no
# more than its rows. Measured with the multi-level release at 200k x 11,
# r = 1216, on a 2-core host: 2^16 cells took 32 ms against 21 ms here (its
# per-chunk level draws), and 2^20 raised its peak from 0.95 to 3.2 MB.
_CHUNK_CELLS = 2**18
# Hashed noise (footprint > 1) is drawn and summed in row blocks of this many
# cells (256 KiB of float64), so a release holds one block of eta, not a
# whole noise chunk (1.19 MB at p = 13502 rows of d + 1 = 11). Same host and
# release: 0.95 MB peak here, 1.33 MB at 2^16 cells; 2^14 cells peaks at
# 0.89 MB, set then by a data chunk's memberships, but its twice as many
# block sums cost about 0.3 ms more per release.
_NOISE_BLOCK_CELLS = 2**15
_SIGNS = np.array([-1.0, 1.0])


@dataclass(frozen=True)
class NoisePlan:
    """How a private CountSketch was noised: row counts and per-bucket coverage."""

    p: int  # noise rows of eta, noise_row_count(r)
    sigma: float
    coverage: np.ndarray  # noise rows per sketch row (cs2, l1-illus: multinomial count), after patch-up
    patched: int  # buckets that needed a dedicated extra noise row


def countsketch_assignment(seed: np.random.SeedSequence, chunks, r: int, signed: bool = True):
    """Yield each ``(start, k)`` chunk's ``bucket_sum`` arguments ``([(None, buckets)], signs)``.

    Buckets are uniform over ``[0, r)`` and signs over ``{-1, +1}`` (None unsigned), drawn from two
    generators spawned from ``seed``, so neither the chunk size nor ``signed`` moves a row's bucket."""
    buckets, signs = (np.random.default_rng(s) for s in seed.spawn(2))
    for _, k in chunks:
        yield [(None, buckets.integers(0, r, size=k))], signs.choice(_SIGNS, size=k) if signed else None


def draw_countsketch_plan(n_inputs: int, r: int, seed) -> "tuple[np.ndarray, np.ndarray]":
    """The ``(buckets, signs)`` that ``countsketch_assignment`` draws for rows ``0 .. n_inputs - 1`` at ``seed``.

    ``seed`` is an int, a sequence of ints or a ``SeedSequence`` (copied, not spawned from). At a
    release's assignment seed, the plan is the release's assignment of its first ``n_inputs`` data rows."""
    if n_inputs < 1 or r < 1:
        raise ParameterError("a plan needs at least one input row and one sketch row")
    seed = np.random.SeedSequence(getattr(seed, "entropy", seed), spawn_key=getattr(seed, "spawn_key", ()))
    [(_, buckets)], signs = next(countsketch_assignment(seed, [(0, n_inputs)], r))
    return buckets, signs


def bucket_sum(out: np.ndarray, m: np.ndarray, maps, signs=None) -> np.ndarray:
    """``out[buckets[t]] += signs[idx[t]] * m[idx[t]]`` for each map ``(idx, buckets)``; returns ``out``.

    ``m`` is a row chunk and ``out`` the ``r``-row accumulator it is added
    into. ``idx=None`` means every row of ``m`` in order, summed straight
    from the column without a gather. ``signs`` holds one sign per row of
    ``m`` (None: all +1) and is applied to each column before the maps are
    summed. One column of ``m`` is read at a time, contiguously when ``m``
    is column-major, and only a signed column is copied, into one buffer, so
    the kernel holds ``O(len(m) + r)`` floats beside ``out``. ``np.bincount``
    sums each bucket onto zero in row order, as ``np.add.at`` does, and each
    map's sums are then added to ``out`` in list order. Where the maps write
    disjoint bucket ranges, as in every release here, that equals
    ``np.add.at`` of the maps onto zeros, added to ``out``, bit for bit.
    """
    r = out.shape[0]
    col = None if signs is None else np.empty(len(m))
    for k in range(out.shape[1]):
        if signs is None:
            col = m[:, k]
        else:
            np.multiply(m[:, k], signs, out=col)
        for idx, buckets in maps:
            out[:, k] += np.bincount(buckets, weights=col if idx is None else col[idx], minlength=r)
    return out


def countsketch_apply(m, r: int, buckets, signs) -> np.ndarray:
    """``bucket_sum`` of ``m`` onto an ``r``-row zero sketch: row i sums ``signs[j] * m[j]`` over rows j in bucket i."""
    a = as_matrix(m)
    if a.shape[0] != len(buckets):
        raise ParameterError(f"plan covers {len(buckets)} input rows but matrix has {a.shape[0]}")
    check_addressable(r, a.shape[1], "sketch")
    return bucket_sum(np.zeros((r, a.shape[1])), a, [(None, buckets)], signs)


def noise_row_count(r: int) -> int:
    """Coupon-collector noise sizing ``p = ceil(r (ln r + 4))``."""
    if r < 1:
        raise ParameterError("r must be at least 1")
    return math.ceil(r * (math.log(r) + 4.0))


def noised_bucket_release(a: np.ndarray, r: int, footprint: int, pp: PrivacyParams, bound: RowBound, seed, assign):
    """Sum ``[A; eta]`` into ``r`` buckets, ``eta`` ``noise_row_count(r)`` N(0, sigma^2 I) rows.

    The hashed releases' one calibration point: a row of ``A`` sits in at
    most ``footprint`` buckets, so ``sigma = gaussian_sigma(bucket_sensitivity(
    bound, footprint), pp)``, refused before anything is sized or drawn; a
    sketch no address space can hold is refused next, before any chunk.

    The ``n`` data rows are walked in chunks of ``max(_CHUNK_CELLS // (d+1),
    r)`` rows. ``assign(seed, chunks)`` yields, for each ``(start, k)`` of
    ``chunks`` (rows ``start .. start + k - 1`` of ``[A; eta]``), that
    chunk's ``bucket_sum`` arguments ``(maps, signs)``, indexing the chunk's
    own rows. Each chunk is added into one ``r x (d+1)`` accumulator, and its
    assignment is dropped before the next is drawn, so the release holds
    ``O(chunk + r (d+1))`` floats beside ``A``. ``coverage[b]`` is the number
    of noise rows in bucket ``b``; a bucket with none is patched with one.

    At footprint 1, ``assign`` places every row in one uniform bucket with a
    sign or none, and a sign flip leaves a Gaussian row's law unchanged, so
    the noise in bucket ``b`` is exactly N(0, c_b sigma^2 I) with ``c ~
    Multinomial(p, 1/r)``. ``assign`` then places the data rows only, and
    ``c`` and one Gaussian row per bucket, scaled by ``sqrt(max(c_b, 1))``,
    are drawn from the noise generator. At a larger footprint a noise row
    sits in several buckets, whose noises are then correlated: ``eta`` is
    walked after the data in chunks of the same size, and each chunk is
    placed by ``assign``'s maps like data rows but unsigned, since a sign
    flip leaves a Gaussian row's law unchanged. A chunk's rows are drawn
    from the noise generator and summed in blocks of ``_NOISE_BLOCK_CELLS //
    (d+1)`` rows (``_sum_noise_chunk``), so no noise chunk is held whole; the
    blocks continue one stream, and only the float association of the sums
    depends on the block size. The patch rows are drawn from their own seed.
    Returns the sketch and its ``NoisePlan``.
    """
    sigma = gaussian_sigma(bucket_sensitivity(bound, footprint), pp)
    n, d1 = a.shape
    p = noise_row_count(r)
    check_addressable(r, d1, "sketch")
    sketch = np.zeros((r, d1))
    noise_seed, assign_seed, patch_seed = np.random.SeedSequence(seed).spawn(3)
    noise = np.random.default_rng(noise_seed)
    step = max(_CHUNK_CELLS // d1, r)
    data = [(start, min(step, n - start)) for start in range(0, n, step)]
    hashed = [] if footprint == 1 else [(start, min(step, n + p - start)) for start in range(n, n + p, step)]
    assignments = assign(assign_seed, data + hashed)
    for start, k in data:
        bucket_sum(sketch, a[start:start + k], *next(assignments))

    if footprint == 1:
        coverage = noise.multinomial(p, np.full(r, 1.0 / r))
        uncovered = np.flatnonzero(coverage == 0)
        coverage[uncovered] = 1
        sketch += np.sqrt(coverage)[:, None] * sample_gaussian_matrix(r, d1, sigma, noise)
    else:
        coverage = np.zeros(r, dtype=np.intp)
        block = max(_NOISE_BLOCK_CELLS // d1, 1)
        for _, k in hashed:
            _sum_noise_chunk(sketch, coverage, k, block, sigma, noise, next(assignments)[0])
        uncovered = np.flatnonzero(coverage == 0)
        if uncovered.size:
            # A sign flip leaves the Gaussian law unchanged, so patches are added as-is.
            sketch[uncovered] += sample_gaussian_matrix(uncovered.size, d1, sigma, patch_seed)
        coverage[uncovered] = 1
    return sketch, NoisePlan(p=p, sigma=sigma, coverage=coverage, patched=int(uncovered.size))


def _sum_noise_chunk(out, coverage, k, block, sigma, noise, maps):
    """Add ``k`` N(0, sigma^2) rows placed by ``maps`` into ``out``, ``block`` rows at a time.

    Each block is the next ``block`` rows of the ``noise`` generator's stream,
    so the blocks stack to one draw of all ``k`` rows. Each map is restricted
    to the block's rows, in map order (``_map_blocks``), and the block is
    summed by ``bucket_sum``; only the float association of the sums depends
    on ``block``. ``coverage`` counts the whole chunk's memberships. The maps
    die when this returns, before the next chunk's are drawn.
    """
    for _, buckets in maps:
        coverage += np.bincount(buckets, minlength=len(coverage))
    blocks = zip(*(_map_blocks(idx, buckets, k, block) for idx, buckets in maps))
    for lo, in_block in zip(range(0, k, block), blocks):
        eta = sample_gaussian_matrix(min(block, k - lo), out.shape[1], sigma, noise)
        bucket_sum(out, eta, in_block)
        del eta  # before the next block is drawn


def _map_blocks(idx, buckets, k, block):
    """Yield the map ``(idx, buckets)`` of a ``k``-row chunk restricted to each ``block`` of rows in turn.

    A restriction keeps the map's order and indexes its block's own rows.
    """
    if idx is None:
        for lo in range(0, k, block):
            yield None, buckets[lo:lo + block]
        return
    which = (idx // block).astype(np.min_scalar_type(k // block))
    order = np.argsort(which, kind="stable")  # a radix sort of small ints: map order within a block
    ends = np.cumsum(np.bincount(which, minlength=-(-k // block)))
    del which  # held across every yield otherwise
    begin = 0
    for lo, end in zip(range(0, k, block), ends):
        rows = order[begin:end]
        yield idx[rows] - lo, buckets[rows]
        begin = end


def private_countsketch_l2(
    data: "DataMatrix | np.ndarray",
    r: int,
    pp: PrivacyParams,
    bound: RowBound,
    seed,
    signed: bool = True,
) -> "tuple[np.ndarray, NoisePlan]":
    """Release a private CountSketch ``S [A; eta]`` for l2 regression.

    ``eta`` holds ``p = noise_row_count(r)`` rows of N(0, sigma^2 I) noise,
    with sigma calibrated to footprint 1 (sensitivity ``2B``: a changed row
    moves one bucket) by ``noised_bucket_release``, which draws ``S eta`` by
    its per-bucket law: ``c ~ Multinomial(p, 1/r)`` from the noise seed, the
    first of ``SeedSequence(seed).spawn(3)``, then one N(0, max(c_b, 1)
    sigma^2 I) row per bucket. ``countsketch_assignment`` draws the data rows'
    buckets and signs (no signs unsigned) at the assignment seed, the second,
    so ``draw_countsketch_plan(n, r, that seed)`` returns the release's
    buckets and signs. ``seed`` is an int or a sequence of ints; it, the
    buckets and the signs are discarded, never serialized. Rows come from
    ``certified_rows`` (``CertificationError`` on a row over ``B``); a
    ``DataMatrix`` certified at ``B' <= B`` is not scanned again.
    """
    assign = functools.partial(countsketch_assignment, r=r, signed=signed)
    return noised_bucket_release(certified_rows(data, bound), r, 1, pp, bound, seed, assign)
