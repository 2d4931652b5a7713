import math
import time
import tracemalloc
import weakref

import numpy as np
import pytest

import dpsketch.countsketch as cs_module
import dpsketch.l1 as l1_module
from dpsketch.bounds import GaussianNoiseSpec, l1_coeff_bound, verify_tail_bound
from dpsketch.countsketch import private_countsketch_l2
from dpsketch.dataset import DataMatrix, synthetic_regression
from dpsketch.errors import CertificationError, ParameterError
from dpsketch.l1 import (
    L1SketchConfig,
    illustration_sketch_private,
    l1_tail_bound,
    level_count,
    private_l1_sketch,
)
from dpsketch.linalg import sample_gaussian_matrix
from dpsketch.mechanisms import PrivacyParams, RowBound, gaussian_sigma

PP = PrivacyParams(1.0, 0.05)
B1 = RowBound(1.0)


class TestLevelCount:
    @pytest.mark.parametrize(
        "n,b,expected",
        [(1000, 10, 3), (2, 2, 1), (1, 7, 1), (1024, 2, 10), (1025, 2, 11), (5000, 2, 13)],
    )
    def test_values(self, n, b, expected):
        assert level_count(n, b) == expected

    def test_validation(self):
        with pytest.raises(ParameterError):
            level_count(0, 2.0)
        with pytest.raises(ParameterError):
            level_count(10, 1.0)

    def test_refuses_b_near_one_before_looping(self):
        # log_b n is about 1.2e10 levels here; looping would take minutes
        start = time.perf_counter()
        with pytest.raises(ParameterError):
            level_count(200_000, 1 + 1e-9)
        assert time.perf_counter() - start < 1.0


class TestTailBoundValue:
    def test_product(self):
        assert l1_tail_bound(10, 2.0) == 20.0
        assert l1_tail_bound(7, 0.0) == 0.0

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_sigma_must_be_finite(self, sigma):
        with pytest.raises(ParameterError):
            l1_tail_bound(10, sigma)

    def test_monte_carlo_quarter(self):
        spec = GaussianNoiseSpec(rows=50, sigma=1.0, beta_aug=np.array([1.0]))
        report = verify_tail_bound(spec, "l1", l1_tail_bound(50, 1.0), 0.25, 10_000, seed=3)
        assert report.exceedance_rate <= 0.25


class TestIllustrationSketch:
    def test_unsigned_release_holds_no_sign_array(self):
        # the unsigned release draws no signs, so at the same seed it peaks at
        # least about one float per row of its largest live chunk below the
        # signed cs2 release: both releases peak while a full data chunk of
        # step rows is held, where cs2 also holds its step signs
        data = synthetic_regression(200_000, 10, seed=7)
        r = 1024
        step = max(2**18 // data.A.shape[1], r)
        peaks = []
        for release in (private_countsketch_l2, illustration_sketch_private):
            tracemalloc.start()
            try:
                release(data, r, PP, B1, seed=3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] - peaks[1] >= 0.9 * step * 8

    def test_shape(self):
        data = synthetic_regression(400, 3, seed=4)
        sketch = illustration_sketch_private(data, 12, PP, B1, seed=1)
        assert sketch.shape == (12, 4)

    def test_zero_noise_preserves_column_sums(self):
        # all signs are +1, so bucket rows partition the data rows; a same-seed
        # release of an all-zero A carries the same noise and strips it
        data = synthetic_regression(300, 2, seed=5)
        sketch = illustration_sketch_private(data, 10, PP, B1, seed=2)
        sketch -= illustration_sketch_private(np.zeros_like(data.A), 10, PP, B1, seed=2)
        assert np.allclose(sketch.sum(axis=0), data.A.sum(axis=0), atol=1e-10)

    def test_l1_loss_decomposition(self):
        # concatenation splits the l1 sum exactly
        rng = np.random.default_rng(6)
        a = rng.standard_normal((25, 4))
        eta = rng.standard_normal((9, 4))
        stacked = np.vstack([a, eta])
        for _ in range(10):
            beta = rng.standard_normal(4)
            lhs = np.abs(stacked @ beta).sum()
            rhs = np.abs(a @ beta).sum() + np.abs(eta @ beta).sum()
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_lemma2_exceedance(self):
        # noise block of the illustration sketch stays under the simple bound
        r = 16
        p = math.ceil(r * math.log(r))
        sigma = gaussian_sigma(2.0 * B1.B, PP)
        beta_aug = np.array([0.3, -0.4, 0.2, -1.0])
        spec = GaussianNoiseSpec(rows=p, sigma=sigma, beta_aug=beta_aug)
        bound = l1_coeff_bound(sigma, r, beta_aug)
        report = verify_tail_bound(spec, "l1", bound, 0.25, 1000, seed=8)
        assert report.exceedance_rate <= 0.3


class TestReleaseMemory:
    # A hashed release walks A (l1-multilevel: [A; eta]) in row chunks of
    # 2^18 cells into one r x (d+1) accumulator, so its tracemalloc peak is
    # set by the chunk and the sketch, not by n: 0.48-0.95 MB at both sizes
    # here, 0.03-0.05x A at 200k x 11. Both sizes hold at least one full chunk
    # (23831 rows at d + 1 = 11); a smaller A is one smaller chunk. One float
    # per row of A held whole would add 1.3 MB from 40k to 200k rows and
    # break the 10% growth bound; the 0.2x A bound leaves room for the chunk.
    RELEASES = {
        "cs2": lambda data: private_countsketch_l2(data, 1024, PP, B1, seed=3),
        "l1-illus": lambda data: illustration_sketch_private(data, 1024, PP, B1, seed=3),
        "l1-multilevel": lambda data: private_l1_sketch(
            data, L1SketchConfig(pp=PP, bound=B1, seed=3, N=1216 // (level_count(data.n, 2.0) + 1))
        ),
    }

    @pytest.mark.parametrize("method", sorted(RELEASES))
    def test_peak_does_not_grow_with_n(self, method):
        peaks = []
        for n in (40_000, 200_000):
            data = synthetic_regression(n, 10, seed=7)
            tracemalloc.start()
            try:
                self.RELEASES[method](data)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]
        assert peaks[1] < 0.2 * data.A.nbytes

    def test_noise_chunk_never_held_whole(self):
        # at 40k x 11 and r = 1207 the p = 13393 noise rows are one chunk of
        # 1.18 MB that spans five blocks of 2^15 cells; drawn and summed a
        # block at a time, the release peaks at 0.94 MB, below that chunk.
        # Drawing the chunk whole holds all of it, beside its memberships.
        data = synthetic_regression(40_000, 10, seed=7)
        d1 = data.A.shape[1]
        tracemalloc.start()
        try:
            ws = self.RELEASES["l1-multilevel"](data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ws.noise_rows * d1 * 8
        assert ws.noise_rows <= max(cs_module._CHUNK_CELLS // d1, ws.r)  # one noise chunk
        assert ws.noise_rows * d1 >= 3 * cs_module._NOISE_BLOCK_CELLS

    def test_chunk_memberships_dead_before_next_draw(self, monkeypatch, chunks_of_r_rows):
        # every array _level_buckets returns for a chunk of [A; eta], data or
        # noise, is freed before the next chunk's memberships are drawn, so a
        # release never holds two chunks' memberships
        draw = l1_module._level_buckets
        previous, alive = [], []

        def spy(*args):
            alive.append(sum(ref() is not None for ref in previous))
            maps, sizes = draw(*args)
            previous[:] = [weakref.ref(x) for pair in maps for x in pair if x is not None]
            return maps, sizes

        monkeypatch.setattr(l1_module, "_level_buckets", spy)
        n = 300
        ws = private_l1_sketch(synthetic_regression(n, 2, seed=40), L1SketchConfig(pp=PP, bound=B1, seed=2, N=8, s=2))
        assert len(alive) == math.ceil(n / ws.r) + math.ceil(ws.noise_rows / ws.r) >= 4
        assert alive == [0] * len(alive)


class TestConfigValidation:
    def test_n_multiple_of_s(self):
        with pytest.raises(ParameterError):
            L1SketchConfig(pp=PP, bound=B1, seed=0, N=10, s=3)

    def test_b_must_exceed_one(self):
        with pytest.raises(ParameterError):
            L1SketchConfig(pp=PP, bound=B1, seed=0, N=10, b=1.0)

    @pytest.mark.parametrize("b", [math.inf, math.nan])
    def test_b_must_be_finite(self, b):
        with pytest.raises(ParameterError, match="finite"):
            L1SketchConfig(pp=PP, bound=B1, seed=0, N=10, b=b)


class TestMultiLevelSketch:
    def test_bookkeeping(self):
        data = synthetic_regression(500, 3, seed=7)
        cfg = L1SketchConfig(pp=PP, bound=B1, seed=3, N=20, b=2.0, s=2, N_u=8)
        ws = private_l1_sketch(data, cfg)
        h_m = level_count(500, 2.0)
        assert ws.h_m == h_m
        assert ws.rows.shape == (20 * h_m + 8, 4)
        assert ws.r == 20 * h_m + 8
        # weights track levels: 1/s at level 0, b^h elsewhere
        expected = np.where(ws.level_of == 0, 0.5, 2.0 ** ws.level_of.astype(float))
        assert np.array_equal(ws.weights, expected)
        assert (ws.level_of[:20] == 0).all() and (ws.level_of[-8:] == h_m).all()
        # calibrated at the footprint: a changed row moves s + h_m buckets by <= 2B
        assert ws.sigma == pytest.approx(gaussian_sigma(2.0 * math.sqrt(2 + h_m), PP), rel=1e-12)

    def test_zero_noise_degenerate_countmin(self):
        # huge b collapses the sketch to level 0 plus an (empty) uniform level;
        # a same-seed release of an all-zero A carries the same noise
        rng = np.random.default_rng(9)
        a = rng.standard_normal((200, 3)) * 0.05
        data = DataMatrix(a, B1)
        cfg = L1SketchConfig(pp=PP, bound=B1, seed=4, N=16, b=1e9, s=1)
        ws = private_l1_sketch(data, cfg)
        assert ws.h_m == 1
        rows = ws.rows - private_l1_sketch(np.zeros_like(a), cfg).rows
        assert np.allclose(rows[:16].sum(axis=0), a.sum(axis=0), atol=1e-10)
        assert np.allclose(rows[16:], 0.0)  # nothing sampled at rate 1/b

    def test_membership_audit(self):
        # every data row sits in s level-0 buckets and at most one bucket per
        # level h >= 1, over the (s, b) grid of the neighbour audit
        data = synthetic_regression(400, 2, seed=10)
        for s in (1, 2, 4, 16):
            for b in (2.0, 4.0, 1000.0):
                cfg = L1SketchConfig(pp=PP, bound=B1, seed=6, N=5 * s, s=s, b=b)
                ws = private_l1_sketch(data, cfg)
                assert s <= ws.max_data_memberships <= s + ws.h_m

    def test_noise_coverage_after_patching(self):
        for seed in range(50):
            data = synthetic_regression(300, 2, seed=12)
            cfg = L1SketchConfig(pp=PP, bound=B1, seed=seed, N=50, b=2.0)
            ws = private_l1_sketch(data, cfg)
            # high levels rarely receive sampled noise rows; patching fills them
            assert ws.noise_coverage.min() >= 1
            assert ws.noise_coverage.shape == (ws.r,)

    def test_certification(self):
        a = np.array([[3.0, 4.0], [0.0, 0.1], [0.1, 0.0]])
        cfg = L1SketchConfig(pp=PP, bound=B1, seed=0, N=4)
        with pytest.raises(CertificationError):
            private_l1_sketch(a, cfg)

    def test_deterministic(self):
        data = synthetic_regression(250, 2, seed=18)
        cfg = L1SketchConfig(pp=PP, bound=B1, seed=19, N=12, b=3.0)
        one = private_l1_sketch(data, cfg)
        two = private_l1_sketch(data, cfg)
        assert (one.rows == two.rows).all()
        assert (one.weights == two.weights).all()


def _memberships(chunks):
    """(row, bucket) of every membership an l1 release's chunks list, level 0 included.

    ``chunks`` holds ``(start, maps)`` for each chunk of ``[A; eta]``, whose
    first row is ``start``. A map ``(idx, buckets)`` lists memberships one by
    one, ``idx`` counting from the chunk's first row; ``idx=None`` places
    every row of the chunk once, in row order.
    """
    rows = [start + (np.arange(len(buckets)) if idx is None else idx) for start, maps in chunks for idx, buckets in maps]
    return np.concatenate(rows), np.concatenate([buckets for _, maps in chunks for _, buckets in maps])


def _recorded_release(monkeypatch, data, cfg):
    """``private_l1_sketch(data, cfg)`` and the ``(start, maps)`` its per-chunk ``assign`` yielded."""
    release = l1_module.noised_bucket_release
    seen = []

    def spy(*args):
        *head, assign = args

        def recorded(seed, chunks):
            for (start, _), (maps, signs) in zip(chunks, assign(seed, chunks)):
                seen.append((start, maps))
                yield maps, signs

        return release(*head, recorded)

    with monkeypatch.context() as patch:
        patch.setattr(l1_module, "noised_bucket_release", spy)
        return private_l1_sketch(data, cfg), seen


def _release_and_memberships(monkeypatch, data, cfg):
    """``private_l1_sketch(data, cfg)`` and the (row, bucket) pairs its per-chunk ``assign`` drew."""
    ws, seen = _recorded_release(monkeypatch, data, cfg)
    return (ws, *_memberships(seen))


@pytest.fixture
def chunks_of_r_rows(monkeypatch):
    """Release in the smallest chunks ``noised_bucket_release`` takes: ``r`` rows."""
    monkeypatch.setattr(cs_module, "_CHUNK_CELLS", 1)


@pytest.fixture
def noise_blocks_of_four_cells(monkeypatch):
    """Draw and sum hashed noise in blocks of four cells: one row at ``d + 1 = 4``."""
    monkeypatch.setattr(cs_module, "_NOISE_BLOCK_CELLS", 4)


class TestLevelLaw:
    # Every row of [A; eta], data or noise, enters level h >= 1 independently
    # with probability q_h = b^-h, so level h holds Binomial(m, q_h) rows.
    # Seeded; every check allows slack = 4.5 standard errors of its statistic.
    # The variance is checked at the levels whose count has variance >= 20, at
    # least this many per b (at b = 4 and n = 1000 only levels 1 and 2 have it).
    WIDE_LEVELS = {2.0: 5, 1.5: 5, 4.0: 2}

    @pytest.mark.parametrize("b,s", [(2.0, 1), (2.0, 3), (1.5, 1), (1.5, 3), (4.0, 1)])
    def test_membership_law(self, monkeypatch, b, s):
        n, trials, slack = 1000, 300, 4.5
        data = synthetic_regression(n, 2, seed=21)
        counts, joined, data_hits, noise_hits = [], 0, 0, 0
        for seed in range(trials):
            cfg = L1SketchConfig(pp=PP, bound=B1, seed=seed, N=6, s=s, b=b, N_u=4)
            ws, rows, buckets = _release_and_memberships(monkeypatch, data, cfg)
            m = n + ws.noise_rows
            level = ws.level_of[buckets]
            member = np.zeros((ws.h_m + 1, m), dtype=bool)
            member[level, rows] = True
            assert member[1:].sum() == np.count_nonzero(level)  # at most once per sampled level
            counts.append(member[1:].sum(axis=1))
            joined += np.count_nonzero(member[1] & member[2])
            data_hits += member[1:, :n].sum()
            noise_hits += member[1:, n:].sum()
        counts = np.array(counts)
        q = b ** -np.arange(1.0, ws.h_m + 1)
        mean, var = m * q, m * q * (1 - q)
        # per-level counts: the mean at every level, the variance where the
        # count is near normal (sd of a sample variance ~ var sqrt(2 / (T - 1)))
        assert np.all(np.abs(counts.mean(axis=0) - mean) <= slack * np.sqrt(var / trials))
        wide = var >= 20
        assert wide.sum() >= self.WIDE_LEVELS[b]
        ratio = counts.var(axis=0, ddof=1)[wide] / var[wide]
        assert np.all(np.abs(ratio - 1) <= slack * math.sqrt(2 / (trials - 1)))
        # levels 1 and 2 are drawn independently: a row joins both at rate b^-3
        pairs, q3 = trials * m, b**-3
        assert abs(joined - pairs * q3) <= slack * math.sqrt(pairs * q3 * (1 - q3))
        # data rows and noise rows enter the sampled levels at the same rate
        per_row = float((q * (1 - q)).sum())
        p = m - n
        spread = math.sqrt(per_row / (trials * n) + per_row / (trials * p))
        assert abs(data_hits / (trials * n) - noise_hits / (trials * p)) <= slack * spread

    @pytest.mark.parametrize("b,s", [(2.0, 3), (1.5, 1)])
    def test_membership_law_in_chunks_of_r_rows(self, monkeypatch, chunks_of_r_rows, b, s):
        # the same law, statistics and slack when [A; eta] is cut into 18-25
        # chunks, each chunk drawing its own level sizes and subsets;
        # two of the five cases (sparsity s > 1, and the most levels), as each
        # takes about 2 s
        self.test_membership_law(monkeypatch, b, s)


class TestDiagnosticsRecount:
    # the diagnostics a release reports equal a brute-force recount of the
    # (row, bucket) memberships its assignment lists
    @pytest.mark.parametrize("n,s,n_u", [(300, 1, None), (300, 2, 5), (300, 4, 3), (1, 1, None), (1, 2, 3)])
    def test_recount(self, monkeypatch, n, s, n_u):
        data = synthetic_regression(n, 2, seed=30 + n)
        patched = 0
        for seed in range(5):
            cfg = L1SketchConfig(pp=PP, bound=B1, seed=seed, N=4 * s, s=s, b=2.0, N_u=n_u)
            ws, rows, buckets = _release_and_memberships(monkeypatch, data, cfg)
            is_data = rows < n
            level = ws.level_of[buckets]
            # a data row counts once per level, though it sits in s level-0 buckets
            seen = np.unique(level[is_data] * n + rows[is_data])
            assert np.array_equal(ws.data_level_counts, np.bincount(seen // n, minlength=ws.h_m + 1))
            coverage = np.bincount(buckets[~is_data], minlength=ws.r)
            assert ws.patched == np.count_nonzero(coverage == 0)
            assert np.array_equal(ws.noise_coverage, np.maximum(coverage, 1))
            assert ws.max_data_memberships == np.bincount(rows[is_data], minlength=n).max()
            patched += ws.patched
        if ws.h_m > 1:
            assert patched > 0  # the deep levels drew no noise row somewhere: patches were recounted

    @pytest.mark.parametrize("n,s,n_u", [(300, 1, None), (300, 2, 5), (300, 4, 3), (1, 1, None), (1, 2, 3)])
    def test_recount_in_chunks_of_r_rows(self, monkeypatch, chunks_of_r_rows, n, s, n_u):
        # the diagnostics summed and maxed over many chunks still equal the recount
        self.test_recount(monkeypatch, n, s, n_u)


class TestBucketSums:
    @staticmethod
    def add_at_reference(lengths):
        def reference(out, m, maps, signs=None):
            lengths.append(len(m))
            signed = m if signs is None else signs[:, None] * m
            chunk = np.zeros_like(out)
            for idx, buckets in maps:
                np.add.at(chunk, buckets, signed if idx is None else signed[idx])
            out += chunk
            return out

        return reference

    def compare(self, monkeypatch, n, s):
        """The release's bucket_sum against np.add.at of each chunk of an explicit [A; eta].

        The reference sums each chunk (each block of a noise chunk) onto zeros
        and adds the sums in order. Returns each release's sketch row count
        and the row counts of the chunks and blocks it summed.
        """
        data = synthetic_regression(n, 3, seed=n)
        summed = []
        for seed in range(3):
            cfg = L1SketchConfig(pp=PP, bound=B1, seed=seed, N=8, s=s, b=4.0)
            got = private_l1_sketch(data, cfg)
            lengths = []
            with monkeypatch.context() as patch:
                patch.setattr(cs_module, "bucket_sum", self.add_at_reference(lengths))
                want = private_l1_sketch(data, cfg)
            assert sum(lengths) == n + got.noise_rows  # the reference summed every row of [A; eta] once
            assert got.rows.tobytes() == want.rows.tobytes()
            assert (got.noise_coverage == want.noise_coverage).all()
            summed.append((got.r, lengths))
        return summed

    @pytest.mark.parametrize("n,s", [(1, 1), (2, 4), (3, 2), (50, 2), (50, 4), (2000, 1)])
    def test_bincount_equals_add_at(self, monkeypatch, n, s):
        self.compare(monkeypatch, n, s)

    @pytest.mark.parametrize("n,s", [(1, 1), (2, 4), (3, 2), (50, 2), (50, 4), (2000, 1)])
    def test_bincount_equals_add_at_in_chunks_of_r_rows(self, monkeypatch, chunks_of_r_rows, n, s):
        for r, lengths in self.compare(monkeypatch, n, s):
            assert max(lengths) <= r and len(lengths) > 2

    @pytest.mark.parametrize("n,s", [(1, 1), (2, 4), (3, 2), (50, 2), (50, 4), (2000, 1)])
    def test_bincount_equals_add_at_in_noise_blocks(self, monkeypatch, noise_blocks_of_four_cells, n, s):
        # the data rows are one chunk, and the noise chunk is summed a row at a time
        for r, lengths in self.compare(monkeypatch, n, s):
            assert lengths[0] == n and set(lengths[1:]) == {1}

    @pytest.mark.parametrize("chunked", [False, True])
    @pytest.mark.parametrize("n,s", [(50, 2), (2000, 1)])
    def test_noise_is_eta_drawn_whole_added_block_by_block(self, request, monkeypatch, chunked, n, s):
        # A = 0 adds exact zeros, so the sketch is its hashed noise: eta drawn
        # whole from the noise seed, each block of each noise chunk added by
        # np.add.at onto zeros, map by map, then the patch rows. Blocks of
        # three rows, in one noise chunk or in chunks of r rows.
        if chunked:
            request.getfixturevalue("chunks_of_r_rows")
        monkeypatch.setattr(cs_module, "_NOISE_BLOCK_CELLS", 12)
        block = 3
        for seed in range(3):
            cfg = L1SketchConfig(pp=PP, bound=B1, seed=seed, N=8, s=s, b=4.0)
            ws, seen = _recorded_release(monkeypatch, np.zeros((n, 4)), cfg)
            end = n + ws.noise_rows
            noise_seed, _, patch_seed = np.random.SeedSequence(seed).spawn(3)
            eta = sample_gaussian_matrix(ws.noise_rows, 4, ws.sigma, noise_seed)
            want = np.zeros((ws.r, 4))
            covered = np.zeros(ws.r, dtype=bool)
            chunks = [(start, maps) for start, maps in seen if start >= n]
            assert len(chunks) > 1 if chunked else len(chunks) == 1
            for (start, maps), stop in zip(chunks, [start for start, _ in chunks[1:]] + [end]):
                for lo in range(start, stop, block):
                    for idx, buckets in maps:
                        rows = np.arange(start, stop) if idx is None else start + idx
                        inside = (rows >= lo) & (rows < lo + block)
                        part = np.zeros_like(want)
                        np.add.at(part, buckets[inside], eta[rows[inside] - n])
                        want += part
                        covered[buckets] = True
            uncovered = np.flatnonzero(~covered)
            if uncovered.size:
                want[uncovered] += sample_gaussian_matrix(uncovered.size, 4, ws.sigma, patch_seed)
            assert ws.rows.tobytes() == want.tobytes()
