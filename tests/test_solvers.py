import numpy as np
import pytest

from dpsketch.dataset import from_xy, synthetic_regression
from dpsketch.errors import ParameterError, SingularSystemError
from dpsketch.mechanisms import RowBound
from dpsketch.solvers import (
    RegressionSolution,
    SketchProblem,
    approximation_ratio,
    exact_l2_solution,
    l1_objective,
    lad_vertex_oracle,
    solve_l1_weighted,
    solve_l2_sketch,
    _irls_step,
)


def fabricate_solution(beta):
    beta = np.asarray(beta, dtype=float)
    return RegressionSolution(
        beta=beta, beta_aug=np.append(beta, -1.0), sketch_loss=0.0, method="qr"
    )


def problem_from_xy(x, y, weights=None):
    return SketchProblem(np.column_stack([x, y]), weights)


class TestSolveL2:
    def test_exact_fit(self):
        prob = problem_from_xy(np.eye(2), [1.0, 2.0])
        sol = solve_l2_sketch(prob)
        assert sol.beta == pytest.approx([1.0, 2.0], abs=1e-12)
        assert sol.sketch_loss == pytest.approx(0.0, abs=1e-20)
        assert sol.beta_aug[-1] == -1.0

    def test_mean_minimizes_sse(self):
        prob = problem_from_xy(np.ones((3, 1)), [0.0, 1.0, 2.0])
        sol = solve_l2_sketch(prob)
        assert sol.beta == pytest.approx([1.0], rel=1e-12)
        assert sol.sketch_loss == pytest.approx(2.0, rel=1e-12)

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((20, 4))
        base = solve_l2_sketch(SketchProblem(m))
        scaled = solve_l2_sketch(SketchProblem(5.0 * m))
        assert scaled.beta == pytest.approx(base.beta, rel=1e-9)
        assert scaled.sketch_loss == pytest.approx(25.0 * base.sketch_loss, rel=1e-9)

    def test_normal_equations_residual(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((50, 5))
        sol = solve_l2_sketch(SketchProblem(m))
        grad = np.abs(m[:, :-1].T @ (m @ sol.beta_aug)).max()
        assert grad <= 1e-7 * np.abs(m).max() * np.linalg.norm(m[:, -1])

    def test_rank_deficient(self):
        m = np.array([[1.0, 1.0, 0.5], [2.0, 2.0, 1.0], [3.0, 3.0, 0.0]])
        with pytest.raises(SingularSystemError):
            solve_l2_sketch(SketchProblem(m))


class TestSolveL1:
    def test_exact_fit_recovery(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((40, 3))
        beta0 = np.array([1.5, -0.5, 2.0])
        sol = solve_l1_weighted(problem_from_xy(x, x @ beta0))
        assert sol.beta == pytest.approx(beta0, abs=1e-6)
        assert sol.sketch_loss <= 1e-6

    def test_intercept_ignores_outlier(self):
        # LAD of an intercept-only model is the weighted median: 0, not the mean
        sol = solve_l1_weighted(problem_from_xy(np.ones((5, 1)), [0.0, 0.0, 0.0, 0.0, 100.0]))
        assert sol.beta == pytest.approx([0.0], abs=1e-6)
        assert sol.sketch_loss == pytest.approx(100.0, rel=1e-6)

    def test_doubling_weights_keeps_argmin(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((30, 3))
        w = rng.uniform(0.5, 2.0, 30)
        a = solve_l1_weighted(SketchProblem(m, w))
        b = solve_l1_weighted(SketchProblem(m, 2.0 * w))
        assert b.beta == pytest.approx(a.beta, abs=1e-9)
        assert b.sketch_loss == pytest.approx(2.0 * a.sketch_loss, rel=1e-9)

    def test_weights_must_be_positive(self):
        with pytest.raises(ParameterError):
            SketchProblem(np.ones((3, 2)), np.array([1.0, 0.0, 2.0]))

    def test_irls_smoothed_objective_monotone(self):
        # with the smoothing floor held fixed, each step decreases the
        # huberized objective (the majorize-minimize guarantee)
        rng = np.random.default_rng(5)
        design = rng.standard_normal((25, 2))
        target = rng.standard_normal(25)
        w = np.ones(25)
        eps = 0.05

        def huberized(beta):
            res = np.abs(design @ beta - target)
            small = res <= eps
            return float(
                w[small] @ (res[small] ** 2 / (2 * eps) + eps / 2) + w[~small] @ res[~small]
            )

        m = np.column_stack([design, target])
        beta = np.zeros(2)
        prev = huberized(beta)
        for _ in range(40):
            beta = _irls_step(m, w, np.abs(m @ np.append(beta, -1.0)), eps)
            current = huberized(beta)
            assert current <= prev + 1e-12
            prev = current


class TestVertexOracle:
    def test_median_of_three(self):
        sol = lad_vertex_oracle(problem_from_xy(np.ones((3, 1)), [1.0, 2.0, 9.0]))
        assert sol.beta == pytest.approx([2.0])
        assert sol.sketch_loss == pytest.approx(8.0)

    def test_exact_fit(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((10, 2))
        beta0 = np.array([2.0, -1.0])
        sol = lad_vertex_oracle(problem_from_xy(x, x @ beta0))
        assert sol.sketch_loss == pytest.approx(0.0, abs=1e-10)

    def test_guard(self):
        with pytest.raises(ParameterError):
            lad_vertex_oracle(SketchProblem(np.ones((30, 2))))
        with pytest.raises(ParameterError):
            lad_vertex_oracle(SketchProblem(np.ones((10, 5))))

    def test_irls_matches_oracle(self):
        rng = np.random.default_rng(7)
        for i in range(100):
            d = int(rng.integers(1, 3))
            r = int(rng.integers(d + 3, 21))
            m = rng.standard_normal((r, d + 1))
            w = rng.uniform(0.5, 2.0, r) if i % 2 else None
            prob = SketchProblem(m, w)
            oracle = lad_vertex_oracle(prob)
            irls = solve_l1_weighted(prob)
            assert abs(irls.sketch_loss - oracle.sketch_loss) <= 0.01 * oracle.sketch_loss


class TestApproximationRatio:
    def test_exact_solution_gives_one(self):
        data = synthetic_regression(100, 3, seed=8, noise=0.2)
        sol = exact_l2_solution(data)
        rep = approximation_ratio(data, sol, "l2")
        assert rep.kind == "ratio"
        assert rep.value == pytest.approx(1.0, abs=1e-9)

    def test_any_solution_at_least_one(self):
        rng = np.random.default_rng(9)
        data = synthetic_regression(80, 2, seed=10, noise=0.3)
        for norm in ("l1", "l2"):
            for _ in range(5):
                rep = approximation_ratio(data, fabricate_solution(rng.standard_normal(2)), norm)
                assert rep.kind == "ratio"
                assert rep.value >= 1.0 - 1e-9

    def test_zero_exact_loss_reports_excess(self):
        x = np.array([[0.1], [0.2], [0.3]])
        data = from_xy(x, 2.0 * x[:, 0], RowBound(1.0))
        sol = exact_l2_solution(data)
        rep = approximation_ratio(data, fabricate_solution(sol.beta + 1.0), "l2")
        assert rep.kind == "absolute-excess"
        assert rep.value > 0

    def test_l1_objective_helper(self):
        prob = problem_from_xy(np.ones((3, 1)), [1.0, 2.0, 9.0])
        assert l1_objective(prob, [2.0]) == pytest.approx(8.0)

    def test_invalid_norm(self):
        data = synthetic_regression(50, 2, seed=11)
        sol = exact_l2_solution(data)
        with pytest.raises(ParameterError):
            approximation_ratio(data, sol, "linf")
