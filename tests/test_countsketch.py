import math

import numpy as np
import pytest

from dpsketch.countsketch import (
    bucket_sum,
    countsketch_apply,
    draw_countsketch_plan,
    noise_row_count,
    private_countsketch_l2,
)
from dpsketch.dataset import synthetic_regression
from dpsketch.errors import CertificationError, ParameterError
from dpsketch.linalg import sample_gaussian_matrix
from dpsketch.mechanisms import PrivacyParams, RowBound, bucket_sensitivity, gaussian_sigma
from dpsketch.suites import _embedding_ratios

PP = PrivacyParams(1.0, 0.05)


class TestApply:
    def test_permutation_plan_is_identity(self):
        m = np.arange(12.0).reshape(4, 3)
        assert np.array_equal(countsketch_apply(m, 4, np.arange(4), np.ones(4)), m)

    def test_single_row(self):
        out = countsketch_apply([[2.0, 5.0]], 3, np.array([1]), np.array([-1.0]))
        assert np.array_equal(out, [[0.0, 0.0], [-2.0, -5.0], [0.0, 0.0]])

    def test_hand_summed_buckets(self):
        # ones(4x1), buckets (0,0,1,1), signs (+,-,+,+) -> rows (0, 2)
        out = countsketch_apply(np.ones((4, 1)), 2, np.array([0, 0, 1, 1]), np.array([1.0, -1.0, 1.0, 1.0]))
        assert np.array_equal(out, [[0.0], [2.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            countsketch_apply(np.ones((4, 2)), 2, np.zeros(3, dtype=int), np.ones(3))

    def test_unaddressable_sketch_refused(self):
        # a plan into more buckets than an array can hold is refused with a
        # typed error before the accumulator is allocated
        with pytest.raises(ParameterError, match="address"):
            countsketch_apply(np.ones((3, 2)), 10**18, *draw_countsketch_plan(3, 10**18, 1))

    def test_matches_add_at_reference(self):
        # exact equality with the np.add.at accumulation, including plans
        # that leave buckets empty (n << r) and the single-bucket plan r = 1
        rng = np.random.default_rng(41)
        for n, r, d1 in [(5, 50, 3), (300, 1, 4), (2000, 64, 2), (1, 3, 1), (700, 700, 5)]:
            buckets, signs = draw_countsketch_plan(n, r, rng.integers(2**32))
            m = rng.standard_normal((n, d1))
            ref = np.zeros((r, d1))
            np.add.at(ref, buckets, signs[:, None] * m)
            assert np.array_equal(countsketch_apply(m, r, buckets, signs), ref)

    def test_blocks_equal_explicit_stack(self):
        # summing [A; eta] as two row chunks into one accumulator, with a
        # gather and signs, equals np.add.at of each chunk onto zeros, the
        # chunk sums added in order, bit for bit
        rng = np.random.default_rng(42)
        for n, p, r, k in [(1, 4, 1, 3), (40, 25, 8, 200), (3, 9, 64, 50)]:
            a, eta = rng.standard_normal((n, 3)), rng.standard_normal((p, 3))
            for gather in (True, False):
                out, ref = np.zeros((r, 3)), np.zeros((r, 3))
                for block in (a, eta):
                    idx = np.sort(rng.integers(0, len(block), size=k)) if gather else None
                    buckets = rng.integers(0, r, size=k if gather else len(block))
                    signs = rng.choice([-1.0, 1.0], size=len(block)) if gather else None
                    signed = block if signs is None else signs[:, None] * block
                    chunk = np.zeros((r, 3))
                    np.add.at(chunk, buckets, signed if idx is None else signed[idx])
                    ref += chunk
                    assert bucket_sum(out, block, [(idx, buckets)], signs) is out
                    assert np.array_equal(out, ref)

    def test_dense_parts_equal_add_at_reference(self):
        # the level-0 form: each dense array places every row of a column-major
        # chunk once, in row order and without a gather, in its own bucket
        # range, and the entries listed through idx fill the range after them
        rng = np.random.default_rng(43)
        for n, p, s, width, r, k in [(1, 4, 1, 3, 5, 2), (40, 25, 3, 4, 20, 30), (300, 60, 2, 16, 40, 90), (2, 1, 4, 1, 6, 0)]:
            stacked = np.asfortranarray(rng.standard_normal((n + p, 3)))
            m = n + p
            dense = [j * width + rng.integers(0, width, size=m) for j in range(s)]
            for idx in (np.sort(rng.choice(m, size=k, replace=False)), None):
                rows = stacked if idx is None else stacked[idx]
                buckets = rng.integers(s * width, r, size=len(rows))
                for signs in (None, rng.choice([-1.0, 1.0], size=m)):
                    signed = stacked if signs is None else signs[:, None] * stacked
                    ref = np.zeros((r, 3))
                    for level in dense:
                        np.add.at(ref, level, signed)
                    np.add.at(ref, buckets, signed if idx is None else signed[idx])
                    maps = [(None, level) for level in dense] + [(idx, buckets)]
                    assert np.array_equal(bucket_sum(np.zeros((r, 3)), stacked, maps, signs), ref)

    def test_unsigned_plan_validation(self):
        # unsigned sums go through the kernel with signs=None, which adds the
        # rows as they are
        out = bucket_sum(np.zeros((3, 3)), np.diag([1.0, 2.0, 3.0]), [(None, np.array([2, 0, 2]))])
        assert np.array_equal(out, [[0.0, 2.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 3.0]])


class TestPlanDistribution:
    def test_buckets_roughly_uniform_signs_balanced(self):
        buckets, signs = draw_countsketch_plan(20_000, 10, seed=3)
        # one bucket in [0, r) and one sign of exactly +-1 per row
        assert buckets.shape == signs.shape == (20_000,)
        assert buckets.min() >= 0 and buckets.max() < 10
        assert np.all(np.abs(signs) == 1.0)
        counts = np.bincount(buckets, minlength=10)
        assert counts.min() > 1700 and counts.max() < 2300
        assert abs(signs.mean()) < 0.03


class TestNoiseRowCount:
    def test_values(self):
        assert noise_row_count(1) == 4
        assert noise_row_count(100) == 861

    def test_monotone_and_dominates_r(self):
        values = [noise_row_count(r) for r in range(1, 200)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(p >= r for r, p in enumerate(values, start=1))

    def test_validation(self):
        with pytest.raises(ParameterError):
            noise_row_count(0)

    def test_coverage_failure_share_is_at_most_e_minus_4(self):
        # A bucket misses all p noise rows with probability (1 - 1/r)^p <= e^-4 / r,
        # so some bucket needs a patch with probability <= e^-4 (union bound).
        # The share of 4000 seeded noise-row assignments at r = 64 that leave a
        # bucket empty must stay within e^-4 plus two binomial standard deviations.
        r, trials = 64, 4000
        p = noise_row_count(r)
        patched = sum(
            int(np.bincount(draw_countsketch_plan(p, r, [64, i])[0], minlength=r).min() == 0)
            for i in range(trials)
        )
        bound = np.exp(-4.0)
        assert patched / trials <= bound + 2.0 * np.sqrt(bound * (1.0 - bound) / trials)


class TestPrivateCountSketch:
    def test_shape_and_coverage(self):
        data = synthetic_regression(500, 3, seed=6)
        sketch, plan = private_countsketch_l2(data, 16, PP, RowBound(1.0), seed=2)
        assert sketch.shape == (16, 4)
        assert plan.coverage.min() >= 1
        assert plan.p == noise_row_count(16)

    def test_zero_noise_release_is_linear_in_data(self):
        # the plan and the noise depend only on the seed, n and r, so two
        # releases with one seed share them: the release minus that of an
        # all-zero A is the plain CountSketch of A, linear in A
        rng = np.random.default_rng(8)
        a1 = rng.standard_normal((30, 3)) * 0.1
        a2 = rng.standard_normal((30, 3)) * 0.1
        bound = RowBound(1.0)

        def stripped(a):
            sketch, plan = private_countsketch_l2(a, 8, PP, bound, seed=5)
            assert plan.sigma > 0.0
            return sketch - private_countsketch_l2(np.zeros_like(a), 8, PP, bound, seed=5)[0]

        assert np.allclose(stripped(a1 + a2), stripped(a1) + stripped(a2), atol=1e-12)
        assert np.allclose(stripped(3.0 * a1), 3.0 * stripped(a1), atol=1e-12)

    def test_coverage_sweep(self):
        data = synthetic_regression(40, 2, seed=7, bound=1.0)
        for seed in range(1000):
            _, plan = private_countsketch_l2(data, 8, PP, RowBound(1.0), seed=seed)
            assert plan.coverage.min() >= 1

    def test_certification(self):
        a = np.array([[3.0, 4.0], [0.0, 0.1], [0.0, 0.2]])
        with pytest.raises(CertificationError):
            private_countsketch_l2(a, 4, PP, RowBound(1.0), seed=0)

    def test_deterministic(self):
        data = synthetic_regression(200, 3, seed=11)
        a, _ = private_countsketch_l2(data, 12, PP, RowBound(1.0), seed=77)
        b, _ = private_countsketch_l2(data, 12, PP, RowBound(1.0), seed=77)
        assert (a == b).all()


class TestReleaseIsItsPlan:
    # (n, r, seed); 70000 rows at d = 5 span two data chunks, and seed 134 at
    # r = 16 leaves a bucket without noise rows, so that release is patched
    @pytest.mark.parametrize("n,r,seed", [(50, 16, 3), (50, 16, 134), (2000, 64, 5), (70_000, 256, 7)])
    @pytest.mark.parametrize("signed", [True, False], ids=["cs2", "l1-illus"])
    def test_release_rebuilt_from_its_plan(self, n, r, seed, signed):
        # the plan drawn at a release's assignment seed is the release's
        # assignment of its data rows; the noise seed draws the noise rows per
        # bucket c ~ Multinomial(p, 1/r), then one N(0, max(c_b, 1) sigma^2 I)
        # row per bucket
        data, bound = synthetic_regression(n, 5, seed=seed), RowBound(1.0)
        sketch, noise_plan = private_countsketch_l2(data, r, PP, bound, seed, signed=signed)
        noise_seed, assign = np.random.SeedSequence(seed).spawn(2)
        d1 = data.A.shape[1]
        sigma = gaussian_sigma(bucket_sensitivity(bound, 1), PP)
        buckets, signs = draw_countsketch_plan(n, r, assign)
        rebuilt = bucket_sum(np.zeros((r, d1)), data.A, [(None, buckets)], signs if signed else None)
        noise = np.random.default_rng(noise_seed)
        coverage = noise.multinomial(noise_row_count(r), np.full(r, 1.0 / r))
        missed = np.flatnonzero(coverage == 0)
        coverage[missed] = 1
        rebuilt += np.sqrt(coverage)[:, None] * sample_gaussian_matrix(r, d1, sigma, noise)
        assert np.linalg.norm(sketch - rebuilt) <= 1e-12 * np.linalg.norm(rebuilt)
        assert np.array_equal(noise_plan.coverage, coverage)
        assert noise_plan.patched == missed.size
        assert (missed.size > 0) == (seed == 134)
        # the SeedSequence is copied, not spawned from: a second draw repeats the plan
        assert np.array_equal(draw_countsketch_plan(n, r, assign)[1], signs)


def _hashed_noise(rng, r, d1, sigma):
    """``S eta`` for ``p = noise_row_count(r)`` N(0, sigma^2 I) rows, each in a
    uniform bucket with a uniform sign, plus one such row in every bucket they
    missed; and the number of buckets patched."""
    p = noise_row_count(r)
    buckets = rng.integers(0, r, size=p)
    rows = sigma * rng.choice([-1.0, 1.0], size=(p, 1)) * rng.standard_normal((p, d1))
    out = np.zeros((r, d1))
    np.add.at(out, buckets, rows)
    missed = np.flatnonzero(np.bincount(buckets, minlength=r) == 0)
    out[missed] += sigma * rng.standard_normal((missed.size, d1))
    return out, missed.size


class TestNoiseLaw:
    # A release of zero data is its noise alone: N(0, max(c_b, 1) sigma^2 I)
    # in bucket b, c ~ Multinomial(p, 1/r), the law of p hashed noise rows
    # plus a patch row in each bucket they miss. The release and a hashed
    # reference are checked against that law (second and fourth moments of an
    # entry, share of releases patched) and against each other, each within
    # slack = 4 standard errors of the statistic, over seeded draws. The
    # fourth moment, 3 sigma^4 E[max(c_b, 1)^2], tells the mixture over c_b
    # from one variance shared by every bucket.
    def test_per_bucket_noise_has_the_hashed_law(self):
        r, d1, trials, slack = 16, 3, 3000, 4.0
        p = noise_row_count(r)
        sigma = gaussian_sigma(bucket_sensitivity(RowBound(1.0), 1), PP)
        empty = (1 - 1 / r) ** p  # P(c_b = 0)
        mean_c, var_c = p / r, p / r * (1 - 1 / r)
        law = np.array([sigma**2 * (mean_c + empty), 3 * sigma**4 * (var_c + mean_c**2 + empty)])
        # P(some bucket gets no noise row), by inclusion-exclusion
        patch_share = sum((-1) ** (j + 1) * math.comb(r, j) * (1 - j / r) ** p for j in range(1, r))
        assert p == 109 and 0.013 < patch_share < 0.015

        rng = np.random.default_rng(43)
        stats = {"release": [], "hashed": []}
        for seed in range(trials):
            noise, plan = private_countsketch_l2(np.zeros((1, d1)), r, PP, RowBound(1.0), seed)
            assert plan.coverage.sum() == p + plan.patched
            stats["release"].append(((noise**2).mean(), (noise**4).mean(), plan.patched > 0))
            noise, patched = _hashed_noise(rng, r, d1, sigma)
            stats["hashed"].append(((noise**2).mean(), (noise**4).mean(), patched > 0))

        moments = {}
        for name, rows in stats.items():
            *per_release, patched = np.array(rows).T
            mean, se = np.mean(per_release, axis=1), np.std(per_release, axis=1, ddof=1) / np.sqrt(trials)
            assert np.all(np.abs(mean - law) <= slack * se), (name, mean, law)
            patched_sd = np.sqrt(trials * patch_share * (1 - patch_share))
            assert abs(patched.sum() - trials * patch_share) <= slack * patched_sd, name
            moments[name] = mean, se
        (a, se_a), (b, se_b) = moments.values()
        assert np.all(np.abs(a - b) <= slack * np.hypot(se_a, se_b))


class TestSensitivityBookkeeping:
    def test_neighbors_move_one_bucket_by_at_most_2b(self):
        rng = np.random.default_rng(19)
        bound = 1.0
        n = 60
        for trial in range(30):
            a = rng.standard_normal((n, 4))
            a /= np.maximum(np.linalg.norm(a, axis=1, keepdims=True), 1.0)
            k = int(rng.integers(n))
            a_prime = a.copy()
            row = rng.standard_normal(4)
            a_prime[k] = row / max(np.linalg.norm(row), 1.0)
            plan = draw_countsketch_plan(n, 6, seed=trial)
            diff = countsketch_apply(a, 6, *plan) - countsketch_apply(a_prime, 6, *plan)
            changed = np.flatnonzero(np.abs(diff).max(axis=1) > 0)
            assert len(changed) <= 1  # exactly the bucket of row k
            assert np.linalg.norm(diff) <= 2.0 * bound + 1e-9


class TestRidgeDecomposition:
    def test_stacked_loss_splits(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((40, 5))
        eta = rng.standard_normal((13, 5))
        stacked = np.vstack([a, eta])
        for _ in range(10):
            beta = rng.standard_normal(5)
            lhs = np.linalg.norm(stacked @ beta) ** 2
            rhs = np.linalg.norm(a @ beta) ** 2 + np.linalg.norm(eta @ beta) ** 2
            assert lhs == pytest.approx(rhs, rel=1e-8)


class TestEmbeddingMini:
    def test_small_subspace_embedding(self):
        rng = np.random.default_rng(29)
        a = rng.standard_normal((500, 6))
        vs = rng.standard_normal((6, 50))
        base = np.linalg.norm(a @ vs, axis=0)
        inside = 0
        for i in range(20):
            plan = draw_countsketch_plan(500, 250, seed=100 + i)
            ratios = np.linalg.norm(countsketch_apply(a, 250, *plan) @ vs, axis=0) / base
            inside += int(((ratios >= 0.5) & (ratios <= 1.5)).sum())
        assert inside >= 0.85 * 20 * 50


class TestCsEmbeddingRatios:
    @pytest.mark.parametrize("seed", range(5))
    def test_gram_form_matches_column_norms(self, seed):
        # the suite's data and plans: ||SA v|| from the Gram of SA agrees with
        # the norms of the columns of SA @ vs
        n, r = 5000, 2500
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, 6))
        vs = rng.standard_normal((6, 100))
        base = np.linalg.norm(a @ vs, axis=0)
        sa = countsketch_apply(a, r, *draw_countsketch_plan(n, r, np.random.SeedSequence([seed, 0])))
        reference = np.linalg.norm(sa @ vs, axis=0) / base
        np.testing.assert_allclose(_embedding_ratios(sa, vs, base), reference, rtol=1e-12, atol=0)
