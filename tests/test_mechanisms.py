import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsketch.errors import ParameterError
from dpsketch.mechanisms import (
    PrivacyParams,
    RowBound,
    countsketch_sensitivity,
    gaussian_sigma,
    l1_sketch_sensitivity,
)


class TestParams:
    @pytest.mark.parametrize("eps,delta", [(0.0, 0.1), (-1.0, 0.1), (1.0, 0.0), (1.0, 1.0), (1.0, 1.5)])
    def test_invalid_privacy_params(self, eps, delta):
        with pytest.raises(ParameterError):
            PrivacyParams(eps, delta)

    def test_invalid_row_bound(self):
        with pytest.raises(ParameterError):
            RowBound(0.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_epsilon_and_bound(self, value):
        # an infinite epsilon or B would calibrate a noiseless release (sigma 0)
        with pytest.raises(ParameterError):
            PrivacyParams(value, 0.05)
        with pytest.raises(ParameterError):
            RowBound(value)


    @pytest.mark.parametrize(
        "value", ["1", None, True, False, [1.0], 10**400],
        ids=["str", "none", "true", "false", "list", "huge-int"],
    )
    def test_only_finite_real_numbers(self, value):
        # a bool is an int to Python, and 10**400 overflows a float
        with pytest.raises(ParameterError, match="finite"):
            PrivacyParams(value, 0.05)
        with pytest.raises(ParameterError, match="finite"):
            PrivacyParams(1.0, value)
        with pytest.raises(ParameterError, match="finite"):
            RowBound(value)

    def test_integers_and_numpy_scalars_pass(self):
        import numpy as np

        assert PrivacyParams(2, np.float64(0.5)).epsilon == 2
        assert RowBound(np.float32(3.0)).B == 3.0


class TestGaussianSigma:
    def test_zero_sensitivity(self):
        assert gaussian_sigma(0.0, PrivacyParams(1.0, 0.05)) == 0.0

    def test_hand_value(self):
        # oracle: 2 * sqrt(2 ln 25) = 5.074544964718078
        got = gaussian_sigma(2.0, PrivacyParams(1.0, 0.05))
        assert got == pytest.approx(5.074544964718078, rel=1e-12)

    def test_doubling_epsilon_halves(self):
        lo = gaussian_sigma(3.0, PrivacyParams(1.0, 0.1))
        hi = gaussian_sigma(3.0, PrivacyParams(2.0, 0.1))
        assert hi == pytest.approx(lo / 2.0, rel=1e-12)

    def test_monotonicity_grid(self):
        deltas = [0.3, 0.1, 0.05, 0.01, 1e-4]
        epsilons = [0.1, 0.5, 1.0, 2.0, 8.0]
        sens = [0.0, 0.5, 1.0, 4.0]
        for delta in deltas:
            for eps in epsilons:
                vals = [gaussian_sigma(x, PrivacyParams(eps, delta)) for x in sens]
                assert vals == sorted(vals)
        for eps in epsilons:
            vals = [gaussian_sigma(1.0, PrivacyParams(eps, d)) for d in deltas]
            assert vals == sorted(vals)  # shrinking delta raises sigma
        for delta in deltas:
            vals = [gaussian_sigma(1.0, PrivacyParams(e, delta)) for e in epsilons]
            assert vals == sorted(vals, reverse=True)

    def test_negative_sensitivity_rejected(self):
        with pytest.raises(ParameterError):
            gaussian_sigma(-1.0, PrivacyParams(1.0, 0.1))


class TestSensitivities:
    @pytest.mark.parametrize("b,expected", [(1.0, 2.0), (0.5, 1.0), (3.0, 6.0)])
    def test_countsketch(self, b, expected):
        assert countsketch_sensitivity(RowBound(b)) == expected

    @given(st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=50, deadline=None)
    def test_countsketch_exact_2b(self, b):
        assert countsketch_sensitivity(RowBound(b)) == 2.0 * b

    def test_l1_conservative(self):
        got = l1_sketch_sensitivity(RowBound(1.0), h_m=4, s=1)
        assert got == pytest.approx(2.0 * math.sqrt(5.0), rel=1e-12)

    def test_l1_minimal(self):
        got = l1_sketch_sensitivity(RowBound(1.0), h_m=1, s=1)
        assert got == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)

    def test_l1_validation(self):
        with pytest.raises(ParameterError):
            l1_sketch_sensitivity(RowBound(1.0), h_m=0)
        with pytest.raises(ParameterError):
            l1_sketch_sensitivity(RowBound(1.0), h_m=2, s=0)
