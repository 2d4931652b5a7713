import threading
import tracemalloc

import numpy as np
import pytest

from dpsketch import solvers
from dpsketch.dataset import DataMatrix, synthetic_regression
from dpsketch.errors import ParameterError, SingularSystemError
from dpsketch.jl import gaussian_times_root, gram_root
from dpsketch.mechanisms import RowBound
from dpsketch.solvers import (
    RegressionSolution,
    SketchProblem,
    approximation_ratio,
    exact_l1_solution,
    exact_l2_solution,
    solve_l1_weighted,
    solve_l2_sketch,
    _descent,
    _start_basis,
    _tie_breaker,
)
from dpsketch.suites import suite_approx_ratio
from lad_oracle import l1_objective, lad_vertex_oracle


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

    @pytest.mark.parametrize("solver", [solve_l1_weighted, solve_l2_sketch])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_weights_must_be_finite(self, solver, bad):
        # an infinite weight used to give a "converged" l1 solve with loss inf
        # and a misleading non-finite-matrix error from the l2 solve
        m = np.random.default_rng(6).standard_normal((8, 3))
        w = np.ones(8)
        w[2] = bad
        with pytest.raises(ParameterError, match="weights must be finite"):
            solver(SketchProblem(m, w))

    def test_each_pivot_lowers_perturbed_objective(self):
        # from an arbitrary start basis, every pivot strictly lowers the loss
        # on the tie-broken target, duplicated rows included
        rng = np.random.default_rng(5)
        base = rng.standard_normal((20, 4))
        for m in (rng.standard_normal((60, 4)), np.vstack([base] * 3)):
            design, w = m[:, :-1], rng.uniform(0.5, 2.0, m.shape[0])
            target = m[:, -1] + _tie_breaker(m.shape[0], 1e-9 * np.abs(m).max())
            losses = [w @ np.abs(v.residual) for v in _descent(design, target, w, [0, 1, 2])]
            assert len(losses) > 3
            assert all(after < before for before, after in zip(losses, losses[1:]))

    def test_optimality_conditions(self):
        # an independent check of the certificate at a size the oracle cannot
        # reach: the d rows the solution interpolates carry duals t with
        # X_B^T t = -X_N^T (w * sign r_N) and |t| <= w_B
        rng = np.random.default_rng(20)
        for r, d in ((3000, 6), (800, 12)):
            m = rng.standard_normal((r, d + 1)) * rng.uniform(0.1, 10.0, (r, 1))
            w = rng.uniform(0.5, 2.0, r)
            sol = solve_l1_weighted(SketchProblem(m, w))
            assert sol.method == "vertex-descent" and sol.converged and sol.iterations > 0
            residual = m @ sol.beta_aug
            basic = np.argsort(np.abs(residual))[:d]
            nonbasic = np.setdiff1d(np.arange(r), basic)
            assert np.abs(residual[basic]).max() <= 1e-12 * np.abs(m).max()
            x = m[:, :-1]
            t = np.linalg.solve(x[basic].T, -x[nonbasic].T @ (w[nonbasic] * np.sign(residual[nonbasic])))
            assert np.all(np.abs(t) <= w[basic] * (1 + 1e-9))

    def test_pivot_cap_leaves_result_uncertified(self, monkeypatch):
        monkeypatch.setattr(solvers, "_PIVOTS_PER_COLUMN", 0)
        m = np.random.default_rng(12).standard_normal((500, 6))
        sol = solve_l1_weighted(SketchProblem(m))
        assert not sol.converged
        assert sol.iterations == 0
        monkeypatch.undo()
        assert sol.sketch_loss > solve_l1_weighted(SketchProblem(m)).sketch_loss

    def test_column_scaling(self):
        # LAD is equivariant under column scaling: same loss, beta / scale
        rng = np.random.default_rng(21)
        x, y = rng.standard_normal((300, 4)), rng.standard_normal(300)
        scale = np.geomspace(1.0, 1e-11, 4)
        base = solve_l1_weighted(problem_from_xy(x, y))
        scaled = solve_l1_weighted(problem_from_xy(x * scale, y))
        assert base.converged and scaled.converged
        assert scaled.sketch_loss == pytest.approx(base.sketch_loss, rel=1e-9)
        assert scaled.beta * scale == pytest.approx(base.beta, rel=1e-6)

    def test_fixed_instance_certified(self):
        # the exact LAD reference on a 20k x 10 instance (data seed 0), the
        # benchmark's: certified in 33 pivots at its pinned loss, below the
        # 127.55906586248625 an approximate IRLS solve once reached on it
        data = synthetic_regression(20_000, 10, seed=0, bound=1.0)
        sol = exact_l1_solution(data)
        assert sol.converged
        assert sol.sketch_loss <= 127.55906586248625
        assert sol.iterations == 33
        assert sol.sketch_loss == pytest.approx(127.55906586224802, rel=1e-12, abs=0)

    def test_peak_memory_holds_no_copy_of_input(self):
        # the design is read as a view of A (4.4 MB): a contiguous copy of it
        # alone would take 0.91x A, which leaves the solve no room below A
        data = synthetic_regression(50_000, 10, seed=5, noise=0.5)
        tracemalloc.start()
        try:
            exact_l1_solution(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < data.A.nbytes

    def test_rank_deficient(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((30, 2))
        m = np.column_stack([x, x[:, 0], rng.standard_normal(30)])
        with pytest.raises(SingularSystemError):
            solve_l1_weighted(SketchProblem(m))


def reference_descent(design, target, w, basis, glob=None):
    """The descent with no partial selection: each vertex computes ``X beta``
    and ``X^T (w * sign)`` and sorts every crossing in full. ``glob`` is
    added to ``X^T (w * sign)``, and a step whose slope does not turn ends
    the descent, as in ``_descent``."""
    basis = np.array(basis)
    while True:
        try:
            inverse = np.linalg.inv(design[basis])
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError("LAD basis is singular; design is rank deficient") from exc
        residual = design @ (inverse @ target[basis]) - target
        residual[basis] = 0.0
        sign = np.sign(residual)
        dual = -inverse.T @ (design.T @ (w * sign) + (0.0 if glob is None else glob))
        excess = np.abs(dual) - w[basis]
        j = int(np.argmax(excess))
        optimal = not excess[j] > solvers._DUAL_SLACK * w[basis][j]
        yield solvers._Vertex(basis.copy(), inverse, residual, sign, optimal)
        if optimal:
            return
        a = design @ (np.sign(dual[j]) * inverse[:, j])
        rows = np.flatnonzero(residual * a < 0)
        crossings = -residual[rows] / a[rows]
        order = np.argsort(crossings)
        rise = np.cumsum(2.0 * w[rows[order]] * np.abs(a[rows[order]]))
        descent = abs(dual[j]) - w[basis[j]]
        stop = int(np.searchsorted(rise, descent))
        if stop == rise.size and glob is not None:
            return
        basis[j] = rows[order[min(stop, rise.size - 1)]]


def descent_panel():
    """Seeded LAD problems: every n and d, unweighted and weighted, plus
    duplicated rows and exact fits."""
    cases = []
    for n in (30, 200, 1216, 5000, 20000):
        for d in (2, 5, 10):
            for kind in ("plain", "weighted"):
                cases.append(pytest.param(n, d, kind, id=f"{kind}-{n}x{d}"))
        for kind in ("duplicated", "duplicated-weighted", "exact-fit"):
            cases.append(pytest.param(n, 5, kind, id=f"{kind}-{n}x5"))
    return cases


def panel_problem(n, d, kind):
    rng = np.random.default_rng([n, d, len(kind)])
    x = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0, (n, 1))
    y = x @ rng.standard_normal(d)
    if kind != "exact-fit":
        y += rng.laplace(size=n)
    m = np.column_stack([x, y])
    if kind.startswith("duplicated"):
        m = m[rng.integers(0, max(d + 1, n // 4), n)]
    weights = rng.uniform(0.5, 2.0, n) if kind.endswith("weighted") else None
    return SketchProblem(m, weights)


class TestIncrementalDescent:
    """``_descent`` sorts only the crossings nearest zero, and ``_start_basis``
    only the smallest ``|residual|``; ``reference_descent`` sorts every
    crossing, and the solve through it ranks every row. Both must take the
    same pivots to the same bytes."""

    @pytest.mark.parametrize("head", [None, 1], ids=["head-default", "head-1"])
    @pytest.mark.parametrize("n, d, kind", descent_panel())
    def test_matches_reference(self, monkeypatch, n, d, kind, head):
        if head is not None:  # grow the partial selections from a single row
            monkeypatch.setattr(solvers, "_HEAD", head)
        prob = panel_problem(n, d, kind)
        m, w = prob.M, prob.effective_weights()
        design = np.ascontiguousarray(prob.design)
        target = prob.target + _tie_breaker(n, solvers._TIE_BREAK * np.abs(m).max())
        start = _start_basis(design, design @ solvers.augmented_least_squares(m) - target)
        vertices = list(_descent(design, target, w, start))
        reference = list(reference_descent(design, target, w, start))
        assert [v.basis.tolist() for v in vertices] == [v.basis.tolist() for v in reference]
        assert [v.optimal for v in vertices] == [False] * (len(vertices) - 1) + [True]
        last = vertices[-1]
        residual = design @ (last.inverse @ target[last.basis]) - target
        residual[last.basis] = 0.0
        assert np.array_equal(last.residual, residual)
        assert np.array_equal(last.sign, np.sign(residual))

        sol = solve_l1_weighted(prob)
        monkeypatch.setattr(solvers, "_descent", reference_descent)
        monkeypatch.setattr(solvers, "_HEAD", n)  # the full stable order of |residual|
        ref = solve_l1_weighted(prob)
        assert sol.beta.tobytes() == ref.beta.tobytes()
        assert (sol.sketch_loss, sol.iterations, sol.converged) == (
            ref.sketch_loss, ref.iterations, ref.converged,
        )
        assert sol.converged

    @staticmethod
    def start_within_a_second(design, residual):
        """``_start_basis`` on a daemon thread: its basis, the error it raised,
        or a failure if it has not returned within a second."""
        outcome = []

        def run():
            try:
                outcome.append(_start_basis(design, residual))
            except SingularSystemError as exc:
                outcome.append(exc)

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=1.0)
        assert not worker.is_alive(), "_start_basis did not return within a second"
        return outcome[0]

    @pytest.mark.parametrize("tied", [True, False], ids=["tied", "rising"])
    def test_start_basis_past_copies(self, tied):
        # the 20000 rows of smallest |residual| are copies of one row, far
        # more than any head before the full order holds
        rng = np.random.default_rng(22)
        copies, rest, d = 20000, 50, 5
        design = np.vstack([np.tile(rng.standard_normal(d), (copies, 1)), rng.standard_normal((rest, d))])
        residual = np.concatenate([
            np.zeros(copies) if tied else np.linspace(0.0, 1e-3, copies),
            rng.uniform(1.0, 2.0, rest),
        ])
        basis = self.start_within_a_second(design, residual)
        assert isinstance(basis, np.ndarray) and basis.size == d
        assert np.linalg.matrix_rank(design[basis]) == d
        assert np.sum(basis < copies) == 1

    @pytest.mark.parametrize("tied", [True, False], ids=["tied", "rising"])
    def test_start_basis_rank_deficient(self, tied):
        rng = np.random.default_rng(23)
        r, d = 20000, 5
        design = rng.standard_normal((r, d - 1)) @ rng.standard_normal((d - 1, d))
        design[: r // 2] = design[0]
        residual = np.zeros(r) if tied else rng.uniform(0.0, 1.0, r)
        assert isinstance(self.start_within_a_second(design, residual), SingularSystemError)


def cauchy_problem(n, d):
    """A Laplace design with Cauchy noise: the least-squares fit is far from
    the LAD optimum, so many rows far from it have the wrong sign."""
    rng = np.random.default_rng([n, d, 7])
    x = rng.laplace(size=(n, d))
    return SketchProblem(np.column_stack([x, x @ rng.standard_normal(d) + rng.standard_cauchy(n)]))


def core_panel():
    return descent_panel() + [
        pytest.param(n, d, "cauchy", id=f"cauchy-{n}x{d}") for n in (5000, 20000) for d in (2, 5, 10)
    ]


class TestCore:
    """On tall problems the descent first runs on the rows nearest the
    least-squares fit, every other row's sign held in one fixed dual term,
    and the descent over all rows then certifies (or goes on from) its last
    basis. The all-rows solve is the same solver with the core switched off."""

    @staticmethod
    def solve(monkeypatch, prob, core=True):
        """The solution and each descent it ran: whether on the core, and per
        vertex the perturbed targets of its basis (distinct, so they name the
        rows) and whether it is optimal."""
        runs = []
        descent = solvers._descent

        def recording(design, target, w, basis, glob=None):
            runs.append((glob is not None, []))
            for vertex in descent(design, target, w, basis, glob):
                runs[-1][1].append((target[vertex.basis].tolist(), vertex.optimal))
                yield vertex

        with monkeypatch.context() as patch:
            patch.setattr(solvers, "_descent", recording)
            if not core:  # a core over a quarter of the rows is no core
                patch.setattr(solvers, "_CORE", float(prob.M.shape[0]))
            return solve_l1_weighted(prob), runs

    @staticmethod
    def assert_same_loss(prob, sol, ref):
        # the certificate holds to 1 + _DUAL_SLACK, up to the residuals it counts as zero
        x, y, w = prob.design, prob.target, prob.effective_weights()
        scale = np.linalg.norm(x, axis=1) * np.linalg.norm(ref.beta) + np.abs(y)
        zero = solvers._ZERO_RESIDUAL * (w @ scale)
        for a, b in ((sol, ref), (ref, sol)):
            assert a.sketch_loss <= (1 + solvers._DUAL_SLACK) * b.sketch_loss + zero

    @pytest.mark.parametrize("n, d, kind", core_panel())
    def test_matches_all_rows(self, monkeypatch, n, d, kind):
        prob = cauchy_problem(n, d) if kind == "cauchy" else panel_problem(n, d, kind)
        sol, runs = self.solve(monkeypatch, prob)
        ref, ref_runs = self.solve(monkeypatch, prob, core=False)
        assert sol.converged and ref.converged
        self.assert_same_loss(prob, sol, ref)
        assert not any(on_core for on_core, _ in ref_runs)
        assert sol.iterations == sum(len(vertices) - 1 for _, vertices in runs)
        on_core, vertices = runs[0]
        if not on_core:
            assert runs == ref_runs
        elif vertices == ref_runs[0][1]:
            # the core took every all-rows pivot; the descent over all rows
            # confirms its last vertex at once
            assert len(runs[1][1]) == 1
        elif len(vertices) == 1 and not vertices[0][1]:
            # the first step left the core: the all-rows descent, from the start
            assert runs[1:] == ref_runs
        else:  # the all-rows descent crossed a globbed row: other pivots
            return
        assert sol.beta.tobytes() == ref.beta.tobytes()
        assert (sol.sketch_loss, sol.iterations) == (ref.sketch_loss, ref.iterations)

    def test_fixed_instance(self, monkeypatch):
        # every pivot of the 20k x 10 reference is taken on the core
        prob = SketchProblem(synthetic_regression(20_000, 10, seed=0, bound=1.0).A)
        sol, runs = self.solve(monkeypatch, prob)
        ref, _ = self.solve(monkeypatch, prob, core=False)
        assert [(on_core, len(vertices) - 1) for on_core, vertices in runs] == [(True, 33), (False, 0)]
        assert sol.converged and sol.beta.tobytes() == ref.beta.tobytes()
        assert (sol.sketch_loss, sol.iterations) == (ref.sketch_loss, ref.iterations)

    def test_step_leaves_core(self, monkeypatch):
        # a core of a few rows: the first step's slope does not turn among
        # its crossings, and the descent over all rows goes on from there
        prob = panel_problem(20000, 5, "plain")
        ref, _ = self.solve(monkeypatch, prob, core=False)
        monkeypatch.setattr(solvers, "_CORE", 1e-3)
        sol, runs = self.solve(monkeypatch, prob)
        (on_core, core_path), (_, full_path) = runs[:2]
        assert on_core and len(core_path) - 1 < solvers._PIVOTS_PER_COLUMN * 5
        assert not core_path[-1][1] and full_path[0][0] == core_path[-1][0]
        assert sol.converged and sol.iterations == sum(len(vertices) - 1 for _, vertices in runs)
        self.assert_same_loss(prob, sol, ref)

    def test_core_pivots_count_against_cap(self, monkeypatch):
        # 22 pivots on the core at 20000 x 5; a cap of 5 stops there
        monkeypatch.setattr(solvers, "_PIVOTS_PER_COLUMN", 1)
        sol, runs = self.solve(monkeypatch, panel_problem(20000, 5, "plain"))
        assert [(on_core, len(vertices) - 1) for on_core, vertices in runs] == [(True, 5), (False, 0)]
        assert sol.iterations == 5 and not sol.converged


def integer_fixture():
    rng = np.random.default_rng(14)
    x = rng.integers(-2, 3, (22, 3)).astype(float)
    return np.column_stack([x, rng.integers(-3, 4, 22)])


def exact_fit_fixture():
    x = np.random.default_rng(15).standard_normal((20, 3))
    return np.column_stack([x, x @ np.array([1.5, -0.5, 2.0])])


class TestDegenerate:
    """Inputs whose vertices interpolate more than d rows, or whose optimum is not unique."""

    @pytest.mark.parametrize(
        "m, weights",
        [
            (exact_fit_fixture(), None),
            (np.vstack([np.random.default_rng(16).standard_normal((8, 3))] * 3), None),
            (integer_fixture(), None),
            (integer_fixture(), np.random.default_rng(17).integers(1, 4, 22).astype(float)),
            (np.column_stack([np.ones(6), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]]), None),
            (np.column_stack([np.ones(5), [1.0, 1.0, 1.0, 2.0, 2.0]]), np.array([1.0, 1.0, 1.0, 1.5, 1.5])),
            # residuals closer than the tie-breaking perturbation
            (np.column_stack([np.ones(3), [1e-10, 0.0, 1.0]]), None),
            (np.column_stack([np.ones(5), [0.0, 1e-10, 2e-10, 1.0, 1.0]]), None),
        ],
        ids=[
            "exact-fit", "rows-tripled", "integer", "integer-weighted", "median-even",
            "median-weighted-tie", "near-tie", "near-tie-five",
        ],
    )
    def test_certified_and_optimal(self, m, weights):
        prob = SketchProblem(m, weights)
        sol = solve_l1_weighted(prob)
        oracle = lad_vertex_oracle(prob)
        assert sol.converged
        assert sol.sketch_loss == pytest.approx(oracle.sketch_loss, rel=1e-12, abs=1e-12)
        assert sol.sketch_loss == pytest.approx(l1_objective(prob, sol.beta), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("seed, optimum", [(54, 1031.0), (94, 260.0), (156, 2423.0)])
    def test_integer_valued(self, seed, optimum):
        # many rows fit exactly, and beta has components that are zero but for
        # rounding: a zero residual must not read as a flipped sign (these
        # ended at the pivot cap, uncertified; optima from an LP solve)
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(200, 3001)), int(rng.integers(2, 8))
        x = rng.standard_normal((n, d)) * 2
        y = x @ rng.standard_normal(d) + rng.standard_normal(n)
        sol = solve_l1_weighted(problem_from_xy(np.round(x), np.round(y)))
        assert sol.converged
        assert sol.iterations < solvers._PIVOTS_PER_COLUMN * d
        assert sol.sketch_loss == pytest.approx(optimum, rel=1e-12)

    def test_exact_fit_recovers_beta(self):
        sol = solve_l1_weighted(SketchProblem(exact_fit_fixture()))
        assert sol.converged
        assert sol.beta == pytest.approx([1.5, -0.5, 2.0], abs=1e-12)


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

    def test_matches_oracle_exactly(self):
        rng = np.random.default_rng(18)
        for i in range(1000):
            d = int(rng.integers(1, 4))
            r = int(rng.integers(d + 1, 13))
            m = rng.standard_normal((r, d + 1))
            w = rng.uniform(0.5, 2.0, r) if i % 2 else None
            prob = SketchProblem(m, w)
            sol = solve_l1_weighted(prob)
            assert sol.converged
            assert sol.sketch_loss == pytest.approx(lad_vertex_oracle(prob).sketch_loss, rel=1e-9)


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
        data = DataMatrix(np.column_stack([x, 2.0 * x[:, 0]]), RowBound(1.0))
        exact = exact_l2_solution(data)
        off = fabricate_solution(exact.beta + 1.0)
        rep = approximation_ratio(data, off, "l2")
        assert rep.kind == "absolute-excess"
        assert rep.value > 0
        # the rule suite_approx_ratio applies to its hoisted optimum
        residual = data.X @ off.beta - data.y
        assert solvers._ratio_report(float(residual @ residual), exact.sketch_loss) == rep

    def test_hoisted_optimum_is_bit_for_bit(self):
        # suite_approx_ratio solves the exact loss once and scores each trial
        # with _ratio_report; the reports equal approximation_ratio's exactly
        data = synthetic_regression(5000, 5, seed=0, noise=0.1, beta_scale=1.0)
        root = gram_root(data.A)
        loss_star = exact_l2_solution(data).sketch_loss
        for i in range(3):
            sol = solve_l2_sketch(SketchProblem(gaussian_times_root(root, 403, np.random.SeedSequence([0, i]))))
            residual = data.X @ sol.beta - data.y
            hoisted = solvers._ratio_report(float(residual @ residual), loss_star)
            assert hoisted.kind == "ratio"
            assert hoisted == approximation_ratio(data, sol, "l2")

    def test_approx_ratio_suite_solves_the_optimum_once(self, monkeypatch):
        calls = []

        def counted(data):
            calls.append(data)
            return exact_l2_solution(data)

        monkeypatch.setattr(solvers, "exact_l2_solution", counted)
        (report,) = suite_approx_ratio(trials=5, seed=0)
        assert (len(calls), report.trials, report.exceedances) == (1, 5, 0)

    def test_l1_objective_helper(self):
        prob = problem_from_xy(np.ones((3, 1)), [1.0, 2.0, 9.0])
        assert l1_objective(prob, [2.0]) == pytest.approx(8.0)

    def test_invalid_norm(self):
        data = synthetic_regression(50, 2, seed=11)
        sol = exact_l2_solution(data)
        with pytest.raises(ParameterError):
            approximation_ratio(data, sol, "linf")
