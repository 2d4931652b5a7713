import numpy as np
import pytest

from dpsketch.countsketch import (
    CountSketchPlan,
    countsketch_apply,
    draw_countsketch_plan,
    noise_row_count,
    private_countsketch_l2,
)
from dpsketch.dataset import synthetic_regression
from dpsketch.errors import CertificationError, ParameterError
from dpsketch.mechanisms import PrivacyParams, RowBound

PP = PrivacyParams(1.0, 0.05)


class TestApply:
    def test_permutation_plan_is_identity(self):
        m = np.arange(12.0).reshape(4, 3)
        plan = CountSketchPlan(r=4, bucket_of=np.arange(4), sign_of=np.ones(4))
        assert np.array_equal(countsketch_apply(plan, m), m)

    def test_single_row(self):
        plan = CountSketchPlan(r=3, bucket_of=np.array([1]), sign_of=np.array([-1.0]))
        out = countsketch_apply(plan, [[2.0, 5.0]])
        assert np.array_equal(out, [[0.0, 0.0], [-2.0, -5.0], [0.0, 0.0]])

    def test_hand_summed_buckets(self):
        # ones(4x1), buckets (0,0,1,1), signs (+,-,+,+) -> rows (0, 2)
        plan = CountSketchPlan(
            r=2, bucket_of=np.array([0, 0, 1, 1]), sign_of=np.array([1.0, -1.0, 1.0, 1.0])
        )
        out = countsketch_apply(plan, np.ones((4, 1)))
        assert np.array_equal(out, [[0.0], [2.0]])

    def test_dimension_mismatch(self):
        plan = CountSketchPlan(r=2, bucket_of=np.zeros(3, dtype=int), sign_of=np.ones(3))
        with pytest.raises(ParameterError):
            countsketch_apply(plan, np.ones((4, 2)))

    def test_matches_add_at_reference(self):
        # exact equality with the np.add.at accumulation, including plans
        # that leave buckets empty (n << r) and the single-bucket plan r = 1
        rng = np.random.default_rng(41)
        for n, r, d1 in [(5, 50, 3), (300, 1, 4), (2000, 64, 2), (1, 3, 1), (700, 700, 5)]:
            for signed in (True, False):
                plan = draw_countsketch_plan(n, r, rng.integers(2**32), signed=signed)
                m = rng.standard_normal((n, d1))
                ref = np.zeros((r, d1))
                np.add.at(ref, plan.bucket_of, plan.sign_of[:, None] * m)
                assert np.array_equal(countsketch_apply(plan, m), ref)

    def test_plan_validation(self):
        with pytest.raises(ParameterError):
            CountSketchPlan(r=2, bucket_of=np.array([0, 2]), sign_of=np.ones(2))
        with pytest.raises(ParameterError):
            CountSketchPlan(r=2, bucket_of=np.array([0, 1]), sign_of=np.array([1.0, 0.5]))


class TestPlanDistribution:
    def test_buckets_roughly_uniform_signs_balanced(self):
        plan = draw_countsketch_plan(20_000, 10, seed=3)
        counts = np.bincount(plan.bucket_of, minlength=10)
        assert counts.min() > 1700 and counts.max() < 2300
        assert abs(plan.sign_of.mean()) < 0.03

    def test_unsigned_mode(self):
        plan = draw_countsketch_plan(50, 5, seed=1, signed=False)
        assert (plan.sign_of == 1.0).all()


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


class TestPrivateCountSketch:
    def test_shape_and_coverage(self):
        data = synthetic_regression(500, 3, seed=6)
        sketch, plan = private_countsketch_l2(data, 16, PP, RowBound(1.0), seed=2)
        assert sketch.shape == (16, 4)
        assert plan.coverage.min() >= 1
        assert plan.p == noise_row_count(16)

    def test_zero_noise_release_is_linear_in_data(self):
        # sigma = 0 makes the release a plain CountSketch of [A; 0]; the plan
        # depends only on the seed and the row count, so the map A -> sketch
        # must be linear across calls with the same seed
        rng = np.random.default_rng(8)
        a1 = rng.standard_normal((30, 3)) * 0.1
        a2 = rng.standard_normal((30, 3)) * 0.1
        bound = RowBound(1.0)

        def release(a):
            sketch, plan = private_countsketch_l2(a, 8, PP, bound, seed=5, sigma_override=0.0)
            assert plan.sigma == 0.0
            return sketch

        assert np.allclose(release(a1 + a2), release(a1) + release(a2), atol=1e-12)
        assert np.allclose(release(3.0 * a1), 3.0 * release(a1), atol=1e-12)

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
            diff = countsketch_apply(plan, a) - countsketch_apply(plan, a_prime)
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
            ratios = np.linalg.norm(countsketch_apply(plan, a) @ vs, axis=0) / base
            inside += int(((ratios >= 0.5) & (ratios <= 1.5)).sum())
        assert inside >= 0.85 * 20 * 50
