import functools
import math

import numpy as np
import pytest

from dpsketch import linalg
from dpsketch.dataset import synthetic_regression
from dpsketch.errors import ParameterError, SingularSystemError
from dpsketch.linalg import (
    qr_least_squares,
    sample_gaussian_matrix,
    sample_laplace,
    svd,
    tall_skinny_r,
)
from dpsketch.solvers import exact_l2_solution


def charpoly_singular_values_2x2(m):
    """Oracle: singular values of a 2x2 matrix from the characteristic
    polynomial of M^T M (trace/determinant quadratic)."""
    mtm = m.T @ m
    tr = mtm[0, 0] + mtm[1, 1]
    det = mtm[0, 0] * mtm[1, 1] - mtm[0, 1] * mtm[1, 0]
    disc = math.sqrt(tr * tr - 4.0 * det)
    return math.sqrt((tr + disc) / 2.0), math.sqrt((tr - disc) / 2.0)


class TestSvd:
    def test_identity(self):
        assert np.allclose(svd(np.eye(3)), [1.0, 1.0, 1.0], atol=1e-12)

    def test_diagonal(self):
        assert np.allclose(svd(np.diag([3.0, 2.0])), [3.0, 2.0], atol=1e-12)

    def test_2x2_against_charpoly_oracle(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        s1, s2 = charpoly_singular_values_2x2(m)
        # frozen oracle values: 5.464985704219043, 0.3659661906262571
        assert s1 == pytest.approx(5.464985704219043, rel=1e-12)
        got = svd(m)
        assert got[0] == pytest.approx(s1, rel=1e-9)
        assert got[1] == pytest.approx(s2, rel=1e-9)

    def test_invariants_on_random(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = rng.standard_normal((50, 5))
            s = svd(a)
            assert s.shape == (5,)
            assert np.all(np.diff(s) <= 0) and s[-1] >= 0
            # the squares are the eigenvalues of A^T A (ascending from eigvalsh)
            eig = np.linalg.eigvalsh(a.T @ a)[::-1]
            assert np.max(np.abs(s**2 - eig)) <= 1e-10 * eig[0]

    def test_rejects_nonfinite(self):
        with pytest.raises(ParameterError):
            svd([[1.0, np.nan], [0.0, 1.0]])

    @pytest.mark.parametrize("cond,rel_tol", [(1e4, 1e-10), (1e6, 1e-10), (1e8, 1e-7)])
    def test_accuracy_on_ill_conditioned(self, cond, rel_tol):
        # relative accuracy of sigma_min degrades with conditioning; the
        # achievable float64 bound is roughly eps * cond
        rng = np.random.default_rng(int(cond))
        for _ in range(10):
            u, _ = np.linalg.qr(rng.standard_normal((60, 6)))
            v, _ = np.linalg.qr(rng.standard_normal((6, 6)))
            planted = np.geomspace(cond, 1.0, 6)
            got = svd((u * planted) @ v.T)
            assert np.max(np.abs(got - planted) / planted) <= rel_tol


class TestTallSkinnyR:
    @staticmethod
    def group_rows(k):
        return 256 * max(1, linalg._QR_GROUP_ENTRIES // (256 * k))

    @staticmethod
    def remainder_r(ab):
        n, k = ab.shape
        return [np.linalg.qr(ab[n - n % 256 :], mode="r")] if n % 256 else []

    @classmethod
    def fold_reference(cls, ab):
        """Reference: each group's stacked block Rs folded into one running R."""
        n, k = ab.shape
        full, group = n - n % 256, cls.group_rows(k)
        groups = [
            np.linalg.qr(ab[i : min(i + group, full)].reshape(-1, 256, k), mode="r").reshape(-1, k)
            for i in range(0, full, group)
        ]
        held = functools.reduce(lambda r, g: np.linalg.qr(np.vstack([r, g]), mode="r"), groups[1:], groups[0])
        return np.linalg.qr(np.vstack([held, *cls.remainder_r(ab)]), mode="r")

    @classmethod
    def one_stack_reference(cls, ab):
        """Reference: every full 256-row block in one batched QR call, then one QR of the stack."""
        n, k = ab.shape
        full = n - n % 256
        blocks = np.linalg.qr(ab[:full].reshape(-1, 256, k), mode="r").reshape(-1, k)
        return np.linalg.qr(np.vstack([blocks, *cls.remainder_r(ab)]), mode="r")

    @pytest.mark.parametrize("k", [4, 11, 40])
    def test_groups_fold_into_one_running_r_bit_for_bit(self, k):
        # three full groups, a partial group of three blocks, a 37-row remainder
        n = 3 * self.group_rows(k) + 3 * 256 + 37
        assert n >= linalg._QR_BLOCKED_MIN_ROWS
        ab = np.random.default_rng(k).standard_normal((n, k))
        got = tall_skinny_r(ab)
        assert got.shape == (k, k)
        assert got.tobytes() == self.fold_reference(ab).tobytes()

    @pytest.mark.parametrize("k", [4, 11])
    def test_one_group_is_bit_identical_to_one_stack(self, k):
        # the largest input of one group: a full group and a 255-row remainder
        n = self.group_rows(k) + 255
        assert n >= linalg._QR_BLOCKED_MIN_ROWS
        ab = np.random.default_rng(k).standard_normal((n, k))
        assert tall_skinny_r(ab).tobytes() == self.one_stack_reference(ab).tobytes()

    def test_many_groups_keep_the_gram_and_the_diagonal(self):
        # 34 groups at 11 columns: the running R is still a root of A^T A, and
        # agrees up to row signs with one unblocked Householder QR of A
        ab = np.random.default_rng(9).standard_normal((200_003, 11)) * np.geomspace(1.0, 1e-2, 11)
        got = tall_skinny_r(ab)
        gram = ab.T @ ab
        assert np.linalg.norm(got.T @ got - gram) <= 1e-13 * np.linalg.norm(gram)
        unblocked = np.abs(np.diag(np.linalg.qr(ab, mode="r")))
        assert np.all(np.abs(np.abs(np.diag(got)) - unblocked) <= 1e-12 * unblocked)

    @pytest.mark.parametrize("n", [50, 4097, 20003])
    def test_min_singular_value_matches_lapack_on_tall_input(self, n):
        # ill-scaled columns, below and above the blocked threshold: the R
        # factor keeps the smallest singular value of the input itself
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, 7)) * np.geomspace(1.0, 1e-3, 7)
        expected = np.linalg.svd(m, compute_uv=False)[-1]
        assert svd(tall_skinny_r(m))[-1] == pytest.approx(expected, rel=1e-12)

    def test_exact_l2_is_bit_identical_to_qr_least_squares(self):
        data = synthetic_regression(20_000, 10, seed=4)
        beta = exact_l2_solution(data).beta
        assert beta.tobytes() == qr_least_squares(data.A).tobytes()


class TestQrLeastSquares:
    def test_identity(self):
        assert np.allclose(qr_least_squares(np.column_stack([np.eye(2), [5.0, 7.0]])), [5.0, 7.0])

    def test_mean_of_two_points(self):
        assert qr_least_squares(np.column_stack([[1.0, 1.0], [0.0, 2.0]])) == pytest.approx([1.0])

    def test_hand_normal_equations(self):
        m = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        rhs = np.ones(3)
        # oracle: (M^T M)^{-1} M^T rhs with MtM = [[2,1],[1,2]], Mtb = (2,2)
        mtm = m.T @ m
        expected = np.linalg.solve(mtm, m.T @ rhs)
        assert expected == pytest.approx([2.0 / 3.0, 2.0 / 3.0], rel=1e-12)
        assert qr_least_squares(np.column_stack([m, rhs])) == pytest.approx(expected, rel=1e-9)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((40, 6))
        rhs = rng.standard_normal(40)
        v = qr_least_squares(np.column_stack([m, rhs]))
        grad = np.abs(m.T @ (m @ v - rhs)).max()
        assert grad <= 1e-8 * np.abs(m).max() * np.linalg.norm(rhs)

    def test_agrees_with_normal_equations(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            m = rng.standard_normal((30, 4)) + 2.0 * np.eye(30, 4)
            rhs = rng.standard_normal(30)
            ne = np.linalg.solve(m.T @ m, m.T @ rhs)
            assert qr_least_squares(np.column_stack([m, rhs])) == pytest.approx(ne, rel=1e-6)

    def test_rank_deficient_raises(self):
        with pytest.raises(SingularSystemError):
            qr_least_squares(np.column_stack([[[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]], [1.0, 2.0, 3.0]]))

    def test_wide_matrix_rejected(self):
        with pytest.raises(ParameterError):
            qr_least_squares(np.column_stack([[[1.0, 2.0, 3.0]], [1.0]]))

    def test_rhs_alone_rejected(self):
        with pytest.raises(ParameterError):
            qr_least_squares(np.ones((3, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("column", [0, -1], ids=["M", "rhs"])
    def test_non_finite_entry_rejected(self, bad, column):
        ab = np.column_stack([np.eye(3), [1.0, 2.0, 3.0]])
        ab[1, column] = bad
        with pytest.raises(ParameterError):
            qr_least_squares(ab)


class TestAugmentedLeastSquares:
    """The blocked kernel against LAPACK's lstsq, on both sides of the block size."""

    # 4096 rows is where blocking starts; 20003 leaves a 35-row remainder block
    @pytest.mark.parametrize("n", [11, 255, 256, 257, 513, 4095, 4096, 4097, 4353, 20003])
    def test_matches_lstsq(self, n):
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, 10)) * rng.uniform(0.1, 10.0, 10)
        rhs = m @ rng.standard_normal(10) + rng.standard_normal(n)
        expected, *_ = np.linalg.lstsq(m, rhs, rcond=None)
        got = qr_least_squares(np.column_stack([m, rhs]))
        assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)

    def test_duplicate_column_raises_at_scale(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((20_000, 5))
        m = np.column_stack([x, x[:, 2]])
        with pytest.raises(SingularSystemError):
            qr_least_squares(np.column_stack([m, rng.standard_normal(20_000)]))

    def test_column_nonzero_in_one_row_of_one_block(self):
        rng = np.random.default_rng(13)
        n = 6000
        x = rng.standard_normal((n, 4))
        spike = np.zeros(n)
        spike[777] = 3.0  # inside the fourth 256-row block only
        m = np.column_stack([x, spike])
        rhs = rng.standard_normal(n)
        expected, *_ = np.linalg.lstsq(m, rhs, rcond=None)
        got = qr_least_squares(np.column_stack([m, rhs]))
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)
        # the spike column fits row 777 exactly
        assert (m @ got - rhs)[777] == pytest.approx(0.0, abs=1e-12)

    def test_ill_conditioned_residual_no_worse_than_lstsq(self):
        rng = np.random.default_rng(14)
        n = 5000
        m = rng.standard_normal((n, 6)) * np.geomspace(1.0, 1e-9, 6)
        rhs = m @ rng.standard_normal(6) + 1e-3 * rng.standard_normal(n)
        expected, *_ = np.linalg.lstsq(m, rhs, rcond=None)
        got = qr_least_squares(np.column_stack([m, rhs]))
        ref = np.linalg.norm(m @ expected - rhs)
        assert np.linalg.norm(m @ got - rhs) <= ref * (1.0 + 1e-10)
        # optimality: the residual is orthogonal to every column, in that column's scale
        grad = np.abs(m.T @ (m @ got - rhs)) / np.linalg.norm(m, axis=0)
        assert grad.max() <= 1e-9 * np.linalg.norm(rhs)

    def test_wide_matrix_rejected(self):
        with pytest.raises(ParameterError):
            qr_least_squares(np.ones((2, 4)))


class TestSampling:
    def test_sigma_zero_gives_zeros(self):
        assert not sample_gaussian_matrix(4, 3, 0.0, seed=1).any()

    def test_gaussian_determinism(self):
        a = sample_gaussian_matrix(20, 7, 1.5, seed=42)
        b = sample_gaussian_matrix(20, 7, 1.5, seed=42)
        assert (a == b).all()

    def test_gaussian_sample_variance(self):
        draws = sample_gaussian_matrix(1000, 100, 2.0, seed=8)
        assert 3.9 <= draws.var() <= 4.1

    def test_negative_sigma_rejected(self):
        with pytest.raises(ParameterError):
            sample_gaussian_matrix(2, 2, -1.0, seed=0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        # a NaN sigma would return a matrix of NaNs
        with pytest.raises(ParameterError):
            sample_gaussian_matrix(2, 2, sigma, seed=0)

    def test_laplace_determinism(self):
        assert sample_laplace(1.0, seed=5) == sample_laplace(1.0, seed=5)

    def test_laplace_scale_validation(self):
        with pytest.raises(ParameterError):
            sample_laplace(0.0, seed=0)
        with pytest.raises(ParameterError):
            sample_laplace(-2.0, seed=0)

    def test_laplace_distribution(self):
        draws = np.array([sample_laplace(1.0, seed=s) for s in range(100_000)])
        assert -0.02 <= draws.mean() <= 0.02
        # Laplace CDF oracle: Pr(|Z| > ln 2) = exp(-ln 2) = 1/2
        frac = (np.abs(draws) > math.log(2.0)).mean()
        assert abs(frac - 0.5) <= 0.01
