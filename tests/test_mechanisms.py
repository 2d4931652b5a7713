import dataclasses
import inspect
import math
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpsketch
from dpsketch.countsketch import _CHUNK_CELLS, private_countsketch_l2
from dpsketch.dataset import DataMatrix
from dpsketch.errors import ParameterError
from dpsketch.l1 import L1SketchConfig, level_count, private_l1_sketch
from dpsketch.mechanisms import (
    PrivacyParams,
    RowBound,
    bucket_sensitivity,
    gaussian_sigma,
)

PP = PrivacyParams(1.0, 0.05)


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
        assert bucket_sensitivity(RowBound(b), 1) == expected

    @given(st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=50, deadline=None)
    def test_countsketch_exact_2b(self, b):
        # footprint 1 is 2B bit for bit, so the cs2 and l1-illus sigmas did not move
        assert bucket_sensitivity(RowBound(b), 1) == 2.0 * b

    def test_l1_conservative(self):
        got = bucket_sensitivity(RowBound(1.0), 1 + 4)  # s = 1, h_m = 4
        assert got == pytest.approx(2.0 * math.sqrt(5.0), rel=1e-12)

    def test_l1_minimal(self):
        got = bucket_sensitivity(RowBound(1.0), 1 + 1)
        assert got == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)

    def test_footprint_validation(self):
        for footprint in (0, -1):
            with pytest.raises(ParameterError, match="footprint"):
                bucket_sensitivity(RowBound(1.0), footprint)


class TestNeighbourAudit:
    """Neighbouring datasets (one row replaced, both within B) released with the
    same seed share the assignment and the noise, so the releases differ by
    exactly what the changed row moves. At most ``footprint`` buckets may
    move, the displacement must stay within the structural sensitivity, and
    the sigma each release drew must be at least the Gaussian mechanism's
    sigma for that displacement at the release's (epsilon, delta)."""

    CASES = 60

    @staticmethod
    def neighbours(rng, case, shape=None, changed_from=0):
        n, d1 = shape or (int(rng.integers(20, 300)), int(rng.integers(2, 6)))
        bound = RowBound(float(rng.choice([0.5, 1.0, 3.0])))
        # log-uniform over six decades of epsilon and twelve of delta; at
        # epsilon 1e-3 the noise is about 1e4 times B, and far smaller
        # epsilons would bury the displacement in the noise's rounding
        pp = PrivacyParams(float(10 ** rng.uniform(-3, 3)), float(10 ** rng.uniform(-12, -1e-3)))
        a = rng.standard_normal((n, d1))
        a *= bound.B * rng.uniform(0.0, 1.0, (n, 1)) / np.linalg.norm(a, axis=1, keepdims=True)
        k = int(rng.integers(changed_from, n))
        a[k] *= bound.B / np.linalg.norm(a[k])
        a_prime = a.copy()
        e_j = bound.B * np.eye(d1)[rng.integers(d1)]
        row = rng.standard_normal(d1)
        replacements = [
            -a[k],  # the antipode moves every bucket the row touches by 2B
            e_j,
            -e_j,
            np.zeros(d1),
            row * bound.B * rng.uniform(0.0, 1.0) / np.linalg.norm(row),  # a point in the B-ball
        ]
        a_prime[k] = replacements[case % len(replacements)]
        return DataMatrix(a, bound), DataMatrix(a_prime, bound), bound, pp

    def audit(self, seed, release, footprint, cases=CASES, shape=None, changed_from=0):
        """``release(data, bound, pp, seed, params)`` returns the released rows
        and their sigma; ``footprint(data, params)`` the buckets a row sits in.
        ``shape`` fixes every case's ``(n, d+1)`` (default: drawn per case), and
        the changed row is drawn from rows ``changed_from .. n - 1``."""
        rng = np.random.default_rng(seed)
        worst = 0.0
        for case in range(cases):
            data, data_prime, bound, pp = self.neighbours(rng, case, shape, changed_from)
            params = rng.integers(1 << 32, size=5)
            rows, sigma = release(data, bound, pp, case, params)
            rows_prime, sigma_prime = release(data_prime, bound, pp, case, params)
            assert sigma_prime == sigma
            diff = rows - rows_prime
            buckets = footprint(data, params)
            assert np.count_nonzero(np.abs(diff).max(axis=1)) <= buckets, f"case {case}: over {buckets} buckets moved"
            moved = float(np.linalg.norm(diff))
            ratio = moved / bucket_sensitivity(bound, buckets)
            assert ratio <= 1.0 + 1e-9, f"case {case}: displacement {ratio:.6f} of the bound"
            needed = gaussian_sigma(moved, pp)
            assert needed <= sigma * (1 + 1e-12), f"case {case}: needs sigma {needed:.6g}, drew {sigma:.6g}"
            worst = max(worst, ratio)
        # an audit whose displacements stay far below the bound shows nothing
        assert worst >= 0.5

    @pytest.mark.parametrize("signed", [True, False], ids=["cs2", "l1-illus"])
    def test_countsketch_releases(self, signed):
        def release(data, bound, pp, seed, params):
            sketch, plan = private_countsketch_l2(data, int(params[0] % 64) + 1, pp, bound, seed, signed=signed)
            return sketch, plan.sigma

        self.audit(31 + signed, release, lambda data, params: 1)

    @staticmethod
    def levels(params):
        """The level-0 sparsity ``s`` and the branching ``b`` of a multi-level case."""
        return int([1, 2, 4, 16][params[1] % 4]), float([2.0, 4.0, 1000.0][params[2] % 3])

    def multilevel_release(self, data, bound, pp, seed, params):
        s, b = self.levels(params)
        n_u = int(params[4] % 41) or None  # None: the uniform level has N buckets
        cfg = L1SketchConfig(pp=pp, bound=bound, seed=seed, N=s * int(params[3] % 8 + 1), b=b, s=s, N_u=n_u)
        ws = private_l1_sketch(data, cfg)
        return ws.rows, ws.sigma

    def multilevel_footprint(self, data, params):
        s, b = self.levels(params)
        return s + level_count(data.n, b)

    def test_multilevel_release(self):
        self.audit(33, self.multilevel_release, self.multilevel_footprint)

    # A release walks A in chunks of max(_CHUNK_CELLS // (d+1), r) rows, so
    # 70,000 rows span two chunks: of r = 2^16 rows at d+1 = 5, and of 43,690
    # rows at d+1 = 6 with r <= 64 (the multi-level release, r <= 2216, also
    # walks its noise rows in chunks of that size). The changed row sits in the
    # second chunk, whose assignment continues the first chunk's stream. Each
    # kind of replacement is audited once.
    CHUNKED_ROWS, CHUNKED_CASES = 70_000, 5

    @pytest.mark.parametrize("signed", [True, False], ids=["cs2", "l1-illus"])
    @pytest.mark.parametrize("d1,r", [(5, 2**16), (6, None)], ids=["r-row-chunks", "data-chunks"])
    def test_countsketch_releases_across_chunks(self, signed, d1, r):
        step = max(_CHUNK_CELLS // d1, r or 0)
        assert (r is None or r == step) and self.CHUNKED_ROWS > step

        def release(data, bound, pp, seed, params):
            rows = r or int(params[0] % 64) + 1
            sketch, plan = private_countsketch_l2(data, rows, pp, bound, seed, signed=signed)
            return sketch, plan.sigma

        shape = (self.CHUNKED_ROWS, d1)
        self.audit(35 + signed, release, lambda data, params: 1, self.CHUNKED_CASES, shape, step)

    def test_multilevel_release_across_chunks(self):
        step = _CHUNK_CELLS // 6
        assert self.CHUNKED_ROWS > step
        shape = (self.CHUNKED_ROWS, 6)
        self.audit(37, self.multilevel_release, self.multilevel_footprint, self.CHUNKED_CASES, shape, step)


def test_package_root_exports_no_modules():
    # importing a submodule binds its name in the package; a star import must not
    assert [name for name in dpsketch.__all__ if inspect.ismodule(getattr(dpsketch, name))] == []
    assert {"private_jl_sketch", "SketchFile", "SUITES"} <= set(dpsketch.__all__)


def test_package_root_exports_only_calibrated_releases():
    # the non-private sketchers stay in their modules, and no release exported
    # at the root takes a parameter (or a config field) that sets its noise
    assert not {"draw_countsketch_plan", "countsketch_apply", "jl_project"} & set(dpsketch.__all__)
    releases = [
        getattr(dpsketch, name) for name in dpsketch.__all__
        if name.startswith("private_") or name.endswith("_private")
    ]
    assert len(releases) == 4
    names = [param for fn in releases for param in inspect.signature(fn).parameters]
    names += [f.name for cfg in (dpsketch.JlConfig, dpsketch.L1SketchConfig) for f in dataclasses.fields(cfg)]
    assert [name for name in names if "sigma" in name or "noise" in name] == []


ROOT_API = [
    "BoundReport", "GaussianNoiseSpec", "l1_coeff_bound", "ridge_coeff_bound_l2", "verify_tail_bound",
    "NoisePlan", "noise_row_count", "private_countsketch_l2",
    "DataMatrix", "IngestResult", "ingest", "max_row_norm", "synthetic_regression",
    "CertificationError", "DecompositionError", "DpSketchError", "ParameterError", "SingularSystemError",
    "SketchFileError",
    "JlConfig", "JlReleaseMeta", "private_jl_sketch", "threshold_w_squared",
    "L1SketchConfig", "WeightedSketch", "illustration_sketch_private", "l1_tail_bound", "level_count",
    "private_l1_sketch",
    "PrivacyParams", "RowBound", "bucket_sensitivity", "gaussian_sigma",
    "SketchFile", "read_sketch", "write_sketch",
    "RatioReport", "RegressionSolution", "SketchProblem", "approximation_ratio", "exact_l1_solution",
    "exact_l2_solution", "solve_l1_weighted", "solve_l2_sketch",
    "SUITES",
]
# The building blocks that stay in their modules: linalg (the SVD, the QR
# solve and the samplers) and jl (the noisy rank test).
MODULE_INTERNALS = ["svd", "SvdResult", "qr_least_squares", "sample_gaussian_matrix", "sample_laplace", "noisy_rank_test"]
# Where the root API is called from outside the library.
_REPO = Path(__file__).resolve().parents[1]
_CALLERS = [
    _REPO / "README.md", *sorted((_REPO / "demos").glob("*.py")),
    _REPO / ".github" / "workflows" / "tests.yml", *sorted((_REPO / "perfbench").glob("*.py")),
]


def test_package_root_exports_exactly_the_api():
    assert len(ROOT_API) == 45
    assert dpsketch.__all__ == ROOT_API
    assert [name for name in MODULE_INTERNALS if hasattr(dpsketch, name)] == []


def test_package_root_serves_every_documented_caller():
    # every dps.X, dpsketch.X and "from dpsketch import X" outside the library
    # names a root export or a submodule
    submodules = {info.name for info in pkgutil.iter_modules(dpsketch.__path__)}
    used = {}
    for path in _CALLERS:
        text = path.read_text()
        names = re.findall(r"\b(?:dps|dpsketch)\.([A-Za-z]\w*)", text)
        for wrapped, inline in re.findall(r"from dpsketch import (?:\(([^)]*)\)|([\w ,]+))", text):
            names += [name.strip() for name in (wrapped or inline).split(",") if name.strip()]
        for name in names:
            used.setdefault(name, path.name)
    assert len(used) >= 25  # the patterns still find the callers' names
    unknown = {name: where for name, where in used.items() if name not in ROOT_API and name not in submodules}
    assert unknown == {}
