import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsketch.bounds import (
    BoundReport,
    GaussianNoiseSpec,
    l1_coeff_bound,
    ridge_coeff_bound_l2,
    verify_tail_bound,
)
from dpsketch.errors import ParameterError
from dpsketch.mechanisms import (
    PrivacyParams,
    RowBound,
    countsketch_sensitivity,
    gaussian_sigma,
    l1_sketch_sensitivity,
)
from dpsketch.suites import _DIRECTION, suite_lemma1

PP = PrivacyParams(1.0, 0.05)
B1 = RowBound(1.0)


def sigma_cs(b=B1, pp=PP):
    """Gaussian sigma of the CountSketch releases (sensitivity 2B)."""
    return gaussian_sigma(countsketch_sensitivity(b), pp)


def sigma_sqrt_hm(h_m, b=B1, pp=PP):
    """Gaussian sigma at the paper's 2B sqrt(h_m) multi-level sensitivity constant."""
    return gaussian_sigma(2.0 * b.B * math.sqrt(h_m), pp)


class TestBoundFormulas:
    def test_ridge_hand_value(self):
        # oracle: 13 sqrt(8 ln 8 ln 25) = 95.12919359305178
        got = ridge_coeff_bound_l2(sigma_cs(), 8, [1.0])
        assert got == pytest.approx(95.12919359305178, rel=1e-12)

    def test_l1_simple_hand_value(self):
        # oracle: 16 ln 8 sqrt(2 ln 25) = 84.41775683805606
        got = l1_coeff_bound(sigma_cs(), 8, [1.0])
        assert got == pytest.approx(84.41775683805606, rel=1e-12)

    def test_l1_multilevel_hand_value(self):
        got = l1_coeff_bound(sigma_sqrt_hm(4), 8, [1.0])
        assert got == pytest.approx(2.0 * 84.41775683805606, rel=1e-12)

    def test_multilevel_reduces_to_simple(self):
        beta = [0.2, -0.7, 1.0]
        assert l1_coeff_bound(sigma_sqrt_hm(1), 16, beta) == pytest.approx(
            l1_coeff_bound(sigma_cs(), 16, beta), rel=1e-12
        )

    def test_multilevel_monotone_in_levels(self):
        vals = [l1_coeff_bound(sigma_sqrt_hm(h), 16, [1.0]) for h in range(1, 9)]
        assert vals == sorted(vals)

    def test_beta_norm_linearity(self):
        one = ridge_coeff_bound_l2(sigma_cs(), 8, [0.6, -0.8])
        two = ridge_coeff_bound_l2(sigma_cs(), 8, [1.2, -1.6])
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    def test_r_floor(self):
        for fn in (
            lambda: ridge_coeff_bound_l2(sigma_cs(), 1, [1.0]),
            lambda: l1_coeff_bound(sigma_cs(), 1, [1.0]),
            lambda: l1_coeff_bound(sigma_sqrt_hm(2), 1, [1.0]),
        ):
            with pytest.raises(ParameterError):
                fn()
        with pytest.raises(ParameterError):
            l1_sketch_sensitivity(B1, 0)

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("bound", [ridge_coeff_bound_l2, l1_coeff_bound])
    def test_beta_aug_must_be_finite(self, bound, entry):
        # A NaN bound no sample exceeds, an infinite one no sample reaches.
        for beta in ([entry], [entry, 1.0], [1.0, entry]):
            with pytest.raises(ParameterError):
                bound(1.0, 8, beta)

    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_homogeneity(self, b_scale, eps_scale, beta_scale):
        # degree 1 in B and ||beta||, degree -1 in epsilon
        base_pp = PrivacyParams(1.0, 0.05)
        scaled_pp = PrivacyParams(eps_scale, 0.05)
        beta = np.array([0.3, -1.2, 0.5])
        for fn in (
            lambda b, pp, v: ridge_coeff_bound_l2(sigma_cs(b, pp), 32, v),
            lambda b, pp, v: l1_coeff_bound(sigma_cs(b, pp), 32, v),
            lambda b, pp, v: l1_coeff_bound(sigma_sqrt_hm(3, b, pp), 32, v),
        ):
            base = fn(RowBound(1.0), base_pp, beta)
            assert fn(RowBound(b_scale), base_pp, beta) == pytest.approx(b_scale * base, rel=1e-9)
            assert fn(RowBound(1.0), scaled_pp, beta) == pytest.approx(base / eps_scale, rel=1e-9)
            assert fn(RowBound(1.0), base_pp, beta_scale * beta) == pytest.approx(
                beta_scale * base, rel=1e-9
            )


class TestBoundReport:
    def test_verdict_rule(self):
        # pass iff rate <= threshold + 2 sqrt(threshold / trials);
        # here the slack is 2 sqrt(0.25 / 400) = 0.05, so the cap is 0.30
        passing = BoundReport("x", 1.0, trials=400, exceedances=118, threshold_prob=0.25)
        assert passing.exceedance_rate == pytest.approx(0.295)
        assert passing.verdict == "pass"
        failing = BoundReport("x", 1.0, trials=400, exceedances=128, threshold_prob=0.25)
        assert failing.verdict == "fail"


class TestVerifier:
    def test_infinite_bound_passes(self):
        spec = GaussianNoiseSpec(rows=5, sigma=1.0, beta_aug=np.array([1.0, -1.0]))
        report = verify_tail_bound(spec, "l2", math.inf, 0.25, 200, seed=0)
        assert report.exceedances == 0
        assert report.verdict == "pass"

    def test_nan_bound_refused(self):
        # every comparison with NaN is false, so a NaN bound would count no exceedance and pass
        spec = GaussianNoiseSpec(rows=5, sigma=1.0, beta_aug=np.array([1.0, -1.0]))
        for statistic in ("l1", "l2"):
            with pytest.raises(ParameterError):
                verify_tail_bound(spec, statistic, math.nan, 0.25, 200, seed=0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_spec_sigma_must_be_finite(self, sigma):
        with pytest.raises(ParameterError):
            GaussianNoiseSpec(rows=10, sigma=sigma, beta_aug=np.ones(2))

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    def test_spec_beta_aug_must_be_finite(self, entry):
        with pytest.raises(ParameterError):
            GaussianNoiseSpec(rows=10, sigma=1.0, beta_aug=np.array([1.0, entry]))

    def test_zero_bound_fails(self):
        spec = GaussianNoiseSpec(rows=5, sigma=1.0, beta_aug=np.array([1.0, -1.0]))
        report = verify_tail_bound(spec, "l2", 0.0, 0.25, 200, seed=0)
        assert report.exceedances == 200
        assert report.verdict == "fail"

    def test_lemma1_setup(self):
        spec = GaussianNoiseSpec(rows=50, sigma=1.0, beta_aug=np.array([1.0]))
        report = verify_tail_bound(spec, "l1", 50.0, 0.25, 10_000, seed=1)
        assert report.verdict == "pass"
        # the statistic's mean is about 0.8 * bound, so exceedance is well under 1/4
        assert report.exceedance_rate < 0.05

    def test_trials_floor(self):
        spec = GaussianNoiseSpec(rows=5, sigma=1.0, beta_aug=np.array([1.0]))
        with pytest.raises(ParameterError):
            verify_tail_bound(spec, "l2", 1.0, 0.25, 99, seed=0)

    def test_statistic_name_checked(self):
        spec = GaussianNoiseSpec(rows=5, sigma=1.0, beta_aug=np.array([1.0]))
        with pytest.raises(ParameterError):
            verify_tail_bound(spec, "linf", 1.0, 0.25, 200, seed=0)

    def test_deterministic(self):
        spec = GaussianNoiseSpec(rows=10, sigma=2.0, beta_aug=np.array([0.5, 0.5]))
        a = verify_tail_bound(spec, "l1", 15.0, 0.25, 500, seed=9)
        b = verify_tail_bound(spec, "l1", 15.0, 0.25, 500, seed=9)
        assert a.exceedances == b.exceedances

    def test_lemma1_stream_pinned(self):
        # for dim = 1 the direct draw of eta @ beta_aug is the same stream as
        # the (batch, rows, 1) noise tensor it replaced; counts recorded from it
        assert [rep.exceedances for rep in suite_lemma1()] == [1460, 113, 126]

    @pytest.mark.parametrize("quantile", [0.1, 0.5, 0.9])
    def test_dim5_second_moment(self, quantile):
        # eta @ beta_aug has iid N(0, sigma^2 ||beta_aug||^2) entries, so with
        # two rows ||eta beta_aug||^2 is exponential with mean 2 sigma^2 ||beta_aug||^2:
        # Pr(||.|| >= t) = exp(-t^2 / (2 sigma^2 ||beta_aug||^2)). The reference
        # draws the full noise tensor; 20k trials give a binomial sd below 0.0036.
        beta = np.array([0.5, -1.0, 2.0, 0.0, 3.0])
        sigma, trials = 1.7, 20_000
        second_moment = sigma**2 * float(beta @ beta)
        t = math.sqrt(-2.0 * second_moment * math.log(quantile))
        spec = GaussianNoiseSpec(rows=2, sigma=sigma, beta_aug=beta)
        rate = verify_tail_bound(spec, "l2", t, 0.25, trials, seed=21).exceedance_rate
        eta = sigma * np.random.default_rng(22).standard_normal((trials, 2, 5))
        reference = float((np.linalg.norm(eta @ beta, axis=1) >= t).mean())
        assert abs(rate - quantile) <= 0.02
        assert abs(rate - reference) <= 0.02

    @pytest.mark.parametrize("rows", [45, 109, 267, 523])
    def test_l2_law_at_thm1_rows(self, rows):
        # The l2 statistic is drawn as scale * sqrt(chi2_rows); the reference
        # draws the rows-long N(0, scale^2) vector and takes its norm. Bounds sit
        # at the reference's 0.1, 0.5 and 0.9 sample quantiles. Both rates
        # estimate the same tail probability p <= 0.9 from 10k draws each, so
        # their difference has sd sqrt(2 p (1 - p) / 10k) <= 0.0071; the slack
        # 0.03 is over four of those.
        sigma, trials = sigma_cs(), 10_000
        scale = sigma * float(np.linalg.norm(_DIRECTION))
        reference = np.linalg.norm(
            scale * np.random.default_rng(rows).standard_normal((trials, rows)), axis=1
        )
        spec = GaussianNoiseSpec(rows=rows, sigma=sigma, beta_aug=_DIRECTION)
        for quantile in (0.1, 0.5, 0.9):
            t = float(np.quantile(reference, quantile))
            rate = verify_tail_bound(spec, "l2", t, 0.25, trials, seed=rows + 1).exceedance_rate
            assert abs(rate - float((reference >= t).mean())) <= 0.03
