import math
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest

from dpsketch import suites
from dpsketch.dataset import DataMatrix, synthetic_regression
from dpsketch.errors import CertificationError, ParameterError, SingularSystemError
from dpsketch.jl import (
    JlConfig,
    _full_rank_spectrum,
    gaussian_times_root,
    gram_root,
    jl_project,
    noisy_rank_test,
    private_jl_sketch,
    threshold_w_squared,
)
from dpsketch.linalg import sample_gaussian_matrix, svd
from dpsketch.mechanisms import PrivacyParams, RowBound
from dpsketch.solvers import SketchProblem, exact_l2_solution, solve_l2_sketch
from dpsketch.suites import _bartlett_factor

PP = PrivacyParams(1.0, 0.05)
B1 = RowBound(1.0)


class TestThreshold:
    def test_hand_value(self):
        # oracle: 8 (sqrt(200 ln 160) + 2 ln 160) = 336.0796627631176
        got = threshold_w_squared(B1, PP, 100)
        assert got == pytest.approx(336.0796627631176, rel=1e-12)

    def test_scales_with_b_squared(self):
        one = threshold_w_squared(RowBound(1.0), PP, 50)
        two = threshold_w_squared(RowBound(2.0), PP, 50)
        assert two == pytest.approx(4.0 * one, rel=1e-12)

    def test_scales_inverse_epsilon(self):
        lo = threshold_w_squared(B1, PrivacyParams(1.0, 0.05), 50)
        hi = threshold_w_squared(B1, PrivacyParams(2.0, 0.05), 50)
        assert hi == pytest.approx(lo / 2.0, rel=1e-12)


class TestNoisyRankTest:
    def test_huge_margin_passes(self):
        w_sq = threshold_w_squared(B1, PP, 100)
        assert noisy_rank_test(w_sq + 4.0 * math.log(20.0) + 1e12, w_sq, B1, PP, seed=0)

    def test_zero_fails(self):
        assert not noisy_rank_test(0.0, 1e6, B1, PP, seed=0)

    def test_overflowing_laplace_scale_refused(self):
        with pytest.raises(ParameterError, match="Laplace scale overflows"):
            noisy_rank_test(1.0, 1.0, RowBound(1e200), PP, seed=0)
        with pytest.raises(ParameterError, match="Laplace scale overflows"):
            noisy_rank_test(1.0, 1.0, B1, PrivacyParams(1e-320, 0.05), seed=0)

    def test_deterministic(self):
        outcomes = {noisy_rank_test(350.0, 336.08, B1, PP, seed=7) for _ in range(5)}
        assert len(outcomes) == 1


class TestStackedIdentity:
    def test_w_identity_shift(self):
        # [A; w I] satisfies the exact Gram identity Ahat^T Ahat = A^T A + w^2 I
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rng.standard_normal((50, 5))
            w = rng.uniform(0.5, 10.0)
            stacked = np.vstack([a, w * np.eye(5)])
            lhs = stacked.T @ stacked
            rhs = a.T @ a + w**2 * np.eye(5)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10


class TestPrivateJlSketch:
    def test_output_shape_both_branches(self):
        data = synthetic_regression(300, 4, seed=2)
        sk, meta = private_jl_sketch(data, JlConfig(32, PP, B1, seed=1))
        assert sk.shape == (32, 5)
        assert meta.branch in ("no-augment", "spectral-augment")
        # a tall well-conditioned matrix clears the threshold: sigma_min^2 is
        # about n/d for unit rows, far above w^2 = 153 at this r
        rng = np.random.default_rng(0)
        big = rng.standard_normal((2000, 5))
        big /= np.linalg.norm(big, axis=1, keepdims=True)  # rows on the unit sphere
        bigdm = DataMatrix(big, B1)
        sk2, meta2 = private_jl_sketch(bigdm, JlConfig(8, PP, B1, seed=3))
        assert meta2.branch == "no-augment"
        assert sk2.shape == (8, 5)

    def test_augment_branch_on_tiny_sigma_min(self):
        # near-collinear [X | y] has tiny sigma_min, so the test fails and the
        # utility factor 1 + c^2 gets large enough to set the warning flag
        data = synthetic_regression(200, 3, seed=9, noise=1e-4)
        sk, meta = private_jl_sketch(data, JlConfig(16, PP, B1, seed=4))
        assert meta.branch == "spectral-augment"
        assert meta.c > 0
        assert meta.utility_warning
        assert sk.shape == (16, 4)

    def test_deterministic_given_seed(self):
        data = synthetic_regression(150, 3, seed=14)
        cfg = JlConfig(24, PP, B1, seed=99)
        a, meta_a = private_jl_sketch(data, cfg)
        b, meta_b = private_jl_sketch(data, cfg)
        assert (a == b).all() and meta_a == meta_b

    def test_certification_enforced(self):
        a = np.array([[3.0, 4.0], [0.1, 0.1], [0.1, 0.2]])
        with pytest.raises(CertificationError):
            private_jl_sketch(a, JlConfig(4, PP, B1, seed=0))

    def test_rank_deficient_rejected(self):
        a = np.column_stack([np.ones(10) * 0.5, np.ones(10) * 0.5])
        with pytest.raises(SingularSystemError):
            private_jl_sketch(a, JlConfig(4, PP, B1, seed=0))
        wide = np.full((2, 4), 0.1)
        with pytest.raises(SingularSystemError):
            private_jl_sketch(wide, JlConfig(4, PP, B1, seed=0))

    def test_projection_second_moment(self):
        # E[S^T S] = r I, so the seed-average of (SA)^T (SA) / r approaches A^T A
        rng = np.random.default_rng(31)
        a = rng.standard_normal((8, 2)) + 1.0
        r = 50
        acc = np.zeros((2, 2))
        n_seeds = 1000
        for i in range(n_seeds):
            sk = jl_project(a, r, seed=np.random.SeedSequence([77, i]))
            acc += sk.T @ sk / r
        acc /= n_seeds
        gram = a.T @ a
        assert np.max(np.abs(acc - gram)) <= 0.05 * np.abs(gram).max()

    def test_solution_quality_median(self):
        # sketched loss (rescaled by r) <= (1+mu)^3 (1+c^2) * optimal loss
        # in at least half the trials, with mu implied by the row budget
        d = 4
        r = 200
        mu = math.sqrt(d * math.log(max(d, 2)) / r)
        data = synthetic_regression(800, d, seed=3, noise=0.2, beta_scale=1.0)
        loss_star = exact_l2_solution(data).sketch_loss
        hits = 0
        trials = 40
        for i in range(trials):
            sk, meta = private_jl_sketch(data, JlConfig(r, PP, B1, seed=1000 + i))
            sol = solve_l2_sketch(SketchProblem(sk))
            sketched_loss = np.linalg.norm(sk @ sol.beta_aug) ** 2 / r
            ceiling = (1 + mu) ** 3 * (1 + meta.c**2) * loss_star
            hits += sketched_loss <= ceiling
        assert hits >= trials / 2


def _unit_rows(n, d1, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, d1))
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def _gaussian_times_gram_root(a, r, seed):
    """Reference ``G (A^T A)^{1/2}`` with G rebuilt from ``seed``."""
    _, s, v = svd(a)
    return sample_gaussian_matrix(r, a.shape[1], 1.0, seed) @ ((v * s) @ v.T)


class TestGramRootRelease:
    """The release is ``sqrt(1 + c^2) G (A^T A)^{1/2}``, which has the law of
    ``S A`` / ``S [A; cQ]`` without forming the r x n Gaussian ``S``."""

    # (dataset, r, seed) per branch; unit-sphere rows give sigma_min^2 ~ n/d1,
    # far above w^2, so every seed takes the no-augment branch
    NO_AUGMENT = (DataMatrix(_unit_rows(3000, 5, 0), B1), 8)
    AUGMENT = (synthetic_regression(400, 3, seed=11, noise=0.3), 16)

    @pytest.mark.parametrize("case", ["no-augment", "spectral-augment"])
    def test_reconstruction_from_spawned_seed(self, case):
        data, r = self.NO_AUGMENT if case == "no-augment" else self.AUGMENT
        sk, meta = private_jl_sketch(data, JlConfig(r, PP, B1, seed=6))
        assert meta.branch == case
        _, proj_seed = np.random.SeedSequence(6).spawn(2)
        expected = math.sqrt(1.0 + meta.c**2) * _gaussian_times_gram_root(data.A, r, proj_seed)
        np.testing.assert_allclose(sk, expected, rtol=1e-12, atol=1e-12)

    def test_zero_c_when_sigma_min_clears_w_but_test_fails(self):
        # sigma_min^2 = 153.51 sits between w^2 = 153.29 and w^2 + margin, so
        # most Laplace draws fail the test with c = 0: the release is plain G Q
        a = _unit_rows(820, 5, 2)
        assert threshold_w_squared(B1, PP, 8) < np.linalg.svd(a, compute_uv=False)[-1] ** 2
        sk, meta = private_jl_sketch(DataMatrix(a, B1), JlConfig(8, PP, B1, seed=0))
        assert (meta.branch, meta.c) == ("spectral-augment", 0.0)
        _, proj_seed = np.random.SeedSequence(0).spawn(2)
        np.testing.assert_allclose(sk, _gaussian_times_gram_root(a, 8, proj_seed), rtol=1e-12, atol=1e-12)

    def test_jl_project_reconstruction(self):
        a = synthetic_regression(500, 4, seed=2).A
        seed = np.random.SeedSequence([3, 1])
        np.testing.assert_allclose(
            jl_project(a, 20, seed), _gaussian_times_gram_root(a, 20, seed), rtol=1e-12, atol=1e-12
        )

    @pytest.mark.parametrize("n", [500, 5000])
    def test_shared_root_draws_are_jl_project_bit_for_bit(self, n):
        # the verify suites take the root once and draw every trial from it
        a = synthetic_regression(n, 4, seed=2).A
        root = gram_root(a)
        for i in range(3):
            seed = np.random.SeedSequence([3, i])
            assert gaussian_times_root(root, 20, seed).tobytes() == jl_project(a, 20, seed).tobytes()

    @pytest.mark.parametrize("case", ["no-augment", "spectral-augment"])
    def test_second_moment(self, case):
        # E[R^T R] = r (1 + c^2) A^T A. Each entry of the 400-seed average of
        # R^T R / r has standard deviation <= sqrt(2 / (r * 400)) * max|M|
        # (Wishart), 0.025 max|M| at r = 8, so the slack below is 4 of those.
        data, r = self.NO_AUGMENT if case == "no-augment" else self.AUGMENT
        target = None
        acc = np.zeros((data.d + 1, data.d + 1))
        n_seeds = 400
        for i in range(n_seeds):
            sk, meta = private_jl_sketch(data, JlConfig(r, PP, B1, seed=6100 + i))
            assert meta.branch == case
            if target is None:
                target = (1.0 + meta.c**2) * (data.A.T @ data.A)
            acc += sk.T @ sk / r
        acc /= n_seeds
        assert np.max(np.abs(acc - target)) <= 0.1 * np.abs(target).max()

    def test_meta_pinned(self):
        # values recorded from the release that formed S explicitly: the
        # Laplace draw, branch, w^2 and c do not depend on how the projection
        # is drawn
        data, r = self.AUGMENT
        _, meta = private_jl_sketch(data, JlConfig(r, PP, B1, seed=5))
        assert meta.branch == "spectral-augment"
        assert meta.w_squared == pytest.approx(183.1535337314918, rel=1e-12)
        assert meta.c == pytest.approx(10.30467746554907, rel=1e-9)
        assert meta.utility_warning
        data, r = self.NO_AUGMENT
        _, meta = private_jl_sketch(data, JlConfig(r, PP, B1, seed=5))
        assert (meta.branch, meta.c, meta.utility_warning) == ("no-augment", 0.0, False)
        assert meta.w_squared == pytest.approx(153.29284961632226, rel=1e-12)

    def test_peak_memory_scales_with_input_not_r_times_n(self):
        # forming S (256 x 50k) alone would take 102 MB, 23x the 4.4 MB input,
        # and a thin SVD's n-row U 1x; the R factor needs one group of blocks
        data = synthetic_regression(50_000, 10, seed=1)
        tracemalloc.start()
        try:
            private_jl_sketch(data, JlConfig(256, PP, B1, seed=2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * data.A.nbytes


class TestSpectrum:
    """``s`` and ``Q = V diag(s) V^T`` from the R factor agree with LAPACK's
    thin SVD of ``A`` itself, below and above the blocked-QR threshold."""

    @pytest.mark.parametrize("n", [60, 4097, 30_011])
    def test_matches_thin_svd(self, n):
        a = synthetic_regression(n, 10, seed=n).A
        s, v = _full_rank_spectrum(a)
        _, s_ref, vt = np.linalg.svd(a, full_matrices=False)
        assert np.max(np.abs(s - s_ref) / s_ref) <= 1e-12
        q, q_ref = (v * s) @ v.T, (vt.T * s_ref) @ vt
        assert np.linalg.norm(q - q_ref) <= 1e-12 * np.linalg.norm(q_ref)

    def test_jl_project_validates_its_input(self):
        with pytest.raises(ParameterError):
            jl_project([[1.0, np.nan], [0.0, 1.0], [1.0, 1.0]], 4, seed=0)
        with pytest.raises(ParameterError):
            jl_project(np.ones((0, 3)), 4, seed=0)


class TestJlDistortionLaw:
    """The jl-distortion suite draws ``G^T G`` as ``L L^T`` from the Bartlett
    factor ``L`` in place of the r x k Gaussian ``G`` itself."""

    @pytest.mark.parametrize("k, r", [(20, 1000), (5, 5)])
    def test_wishart_moments(self, k, r):
        # Wishart_k(r, I): E[W] = r I, Var W_ij = r (1 + [i = j]). Over 4000
        # draws an entry's mean has standard error sqrt(Var / 4000); each must
        # lie within 5 of them (210 distinct entries at k = 20, so a false
        # alarm has probability ~1e-4). A sample variance has relative
        # standard error <= sqrt((kurtosis - 1) / 4000) <= 0.034 (kurtosis
        # 3 + 12/r of chi2(r) at r = 5); the slack is 0.15. At (5, 5) the last
        # diagonal entry has 1 degree of freedom.
        n_draws = 4000
        rng = np.random.default_rng(2024)
        w = np.empty((n_draws, k, k))
        for t in range(n_draws):
            factor = _bartlett_factor(k, r, rng)
            assert np.array_equal(factor, np.tril(factor))
            w[t] = factor @ factor.T
        var = r * (1.0 + np.eye(k))
        z = np.abs(w.mean(axis=0) - r * np.eye(k)) / np.sqrt(var / n_draws)
        assert z.max() <= 5.0
        assert np.max(np.abs(w.var(axis=0) / var - 1.0)) <= 0.15

    def test_norm_quantiles_match_gaussian_draws(self):
        # The suite's statistic ||L^T Q e_j||^2 / r against ||G Q e_j||^2 / r
        # through gaussian_times_root, at r = 1000, 20 unit vectors in R^200.
        # Each side has 1000 trials x 20 vectors; a p-quantile of N samples
        # has standard error sqrt(p (1 - p) / N) / f(q_p), with f the density
        # of the near-normal statistic (mean 1, sd sqrt(2 / r)). The two
        # quantiles must agree within 5 standard errors of their difference.
        r, dim, k, trials = 1000, 200, 20, 1000
        vectors = np.random.default_rng(0).standard_normal((dim, k))
        vectors /= np.linalg.norm(vectors, axis=0)
        root = gram_root(vectors)
        bartlett = np.concatenate([
            np.linalg.norm(_bartlett_factor(k, r, np.random.default_rng([11, i])).T @ root, axis=0) ** 2 / r
            for i in range(trials)
        ])
        direct = np.concatenate([
            np.linalg.norm(gaussian_times_root(root, r, np.random.SeedSequence([12, i])), axis=0) ** 2 / r
            for i in range(trials)
        ])
        probs = np.array([0.01, 0.10, 0.50, 0.90, 0.99])
        sd = math.sqrt(2.0 / r)
        z = np.array([NormalDist().inv_cdf(p) for p in probs])
        density = np.exp(-z**2 / 2) / (math.sqrt(2 * math.pi) * sd)
        n = trials * k
        se_diff = np.sqrt(2 * probs * (1 - probs) / n) / density
        gap = np.abs(np.quantile(bartlett, probs) - np.quantile(direct, probs))
        assert np.all(gap <= 5.0 * se_diff), (gap, se_diff)

    def test_suite_draws_no_r_by_k_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("jl-distortion drew an r x k Gaussian")

        monkeypatch.setattr(suites, "gaussian_times_root", refuse)
        monkeypatch.setattr(suites, "jl_project", refuse)
        (report,) = suites.suite_jl_distortion(trials=100, seed=0)
        assert (report.trials, report.exceedances) == (2000, 0)
