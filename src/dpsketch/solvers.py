"""Sketch-and-solve back ends.

A released sketch is an ``r x (d+1)`` matrix whose last column plays the
role of the response, so every solver works on the augmented vector
``beta_aug = [beta; -1]`` and minimizes ``||M beta_aug||`` (optionally
weighted). Every least-squares solve, including each IRLS iteration, goes
through ``linalg.augmented_least_squares``: one blocked Householder QR of
the (weighted) ``[X | y]``, with ``Q`` never formed. Least absolute
deviations uses IRLS with a shrinking smoothing floor, anchored by an exact
vertex-enumeration oracle on small instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .dataset import DataMatrix
from .errors import ParameterError, SingularSystemError
from .linalg import as_matrix, augmented_least_squares, qr_least_squares

# IRLS defaults: smoothing floor 1e-8 * max row scale, halved every 10
# iterations so the smoothed problem approaches the true l1 objective.
IRLS_TOL = 1e-9
IRLS_MAX_ITER = 500
_SMOOTHING_SCALE = 1e-8
_SMOOTHING_HALVE_EVERY = 10

# Vertex enumeration is combinatorial; refuse anything beyond this.
_ORACLE_MAX_ROWS = 25
_ORACLE_MAX_COLS = 3


@dataclass(frozen=True)
class SketchProblem:
    """A released sketch plus optional positive per-row weights."""

    M: np.ndarray
    weights: "np.ndarray | None" = None

    def __post_init__(self):
        m = as_matrix(self.M)
        if m.shape[1] < 2:
            raise ParameterError("sketch needs at least one feature column plus response")
        object.__setattr__(self, "M", m)
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float).reshape(-1)
            if w.shape[0] != m.shape[0]:
                raise ParameterError("weights length must match sketch rows")
            if not np.all(w > 0):
                raise ParameterError("weights must be strictly positive")
            object.__setattr__(self, "weights", w)

    @property
    def design(self) -> np.ndarray:
        return self.M[:, :-1]

    @property
    def target(self) -> np.ndarray:
        return self.M[:, -1]

    def effective_weights(self) -> np.ndarray:
        return np.ones(self.M.shape[0]) if self.weights is None else self.weights


@dataclass(frozen=True)
class RegressionSolution:
    beta: np.ndarray
    beta_aug: np.ndarray
    sketch_loss: float
    method: str
    converged: bool = True
    iterations: int = 0


@dataclass(frozen=True)
class RatioReport:
    """Approximation quality; ``kind`` is "ratio" unless the exact loss is zero,
    in which case the value is the absolute excess loss instead."""

    value: float
    kind: str  # "ratio" | "absolute-excess"


def _finish(beta: np.ndarray, loss: float, method: str, converged=True, iterations=0) -> RegressionSolution:
    beta = np.asarray(beta, dtype=float).reshape(-1)
    return RegressionSolution(
        beta=beta,
        beta_aug=np.concatenate([beta, [-1.0]]),
        sketch_loss=float(loss),
        method=method,
        converged=converged,
        iterations=iterations,
    )


def solve_l2_sketch(problem: SketchProblem) -> RegressionSolution:
    """Least squares on the sketch: minimize ``sum_i w_i (M_i beta_aug)^2``."""
    w = problem.effective_weights()
    scale = np.sqrt(w)
    beta = qr_least_squares(problem.design * scale[:, None], problem.target * scale)
    residual = problem.design @ beta - problem.target
    return _finish(beta, w @ residual**2, "qr")


def l1_objective(problem: SketchProblem, beta) -> float:
    residual = problem.design @ np.asarray(beta, dtype=float) - problem.target
    return float(problem.effective_weights() @ np.abs(residual))


def _irls_step(m, w, abs_residual, smoothing) -> np.ndarray:
    """One IRLS update: weighted LSQ on ``M`` with weights w_i / max(|res_i|, smoothing).

    ``abs_residual`` is ``|M beta_aug|`` at the current iterate.
    """
    u = np.sqrt(w / np.maximum(abs_residual, smoothing))
    return augmented_least_squares(as_matrix(m * u[:, None]))


def solve_l1_weighted(
    problem: SketchProblem, tol: float = IRLS_TOL, max_iter: int = IRLS_MAX_ITER
) -> RegressionSolution:
    """Weighted least absolute deviations by IRLS with a shrinking smoothing floor.

    Returns the best iterate seen; ``converged`` is False when the
    objective was still moving at ``max_iter`` or an inner solve went
    singular. Each iteration makes one pass for ``|M beta_aug|``, which
    gives both the objective and the next weights.
    """
    m = problem.M
    w = problem.effective_weights()
    smoothing = _SMOOTHING_SCALE * max(1.0, float(np.abs(m).max()))

    beta = augmented_least_squares(m)
    residual = np.abs(m @ np.append(beta, -1.0))
    best_obj = float(w @ residual)
    best_beta = beta
    prev_obj = best_obj
    converged = False
    its = 0
    for its in range(1, max_iter + 1):
        try:
            beta = _irls_step(m, w, residual, smoothing)
        except SingularSystemError:
            break
        residual = np.abs(m @ np.append(beta, -1.0))
        obj = float(w @ residual)
        if obj < best_obj:
            best_obj, best_beta = obj, beta
        if abs(obj - prev_obj) <= tol * (1.0 + obj):
            converged = True
            break
        prev_obj = obj
        if its % _SMOOTHING_HALVE_EVERY == 0:
            smoothing *= 0.5
    return _finish(best_beta, best_obj, "irls", converged=converged, iterations=its)


def lad_vertex_oracle(problem: SketchProblem) -> RegressionSolution:
    """Exact weighted LAD on tiny instances by enumerating d-row interpolations.

    The optimum of a (weighted) LAD problem with a full-rank design
    interpolates d rows, so trying every size-d subset is exact. Guarded to
    r <= 25, d <= 3.
    """
    design, target = problem.design, problem.target
    r, d = design.shape
    if r > _ORACLE_MAX_ROWS or d > _ORACLE_MAX_COLS:
        raise ParameterError(
            f"vertex oracle refuses instances beyond {_ORACLE_MAX_ROWS} rows / {_ORACLE_MAX_COLS} cols"
        )
    best_obj = np.inf
    best_beta = None
    for subset in itertools.combinations(range(r), d):
        sub = design[list(subset)]
        try:
            candidate = np.linalg.solve(sub, target[list(subset)])
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(candidate)):
            continue
        obj = l1_objective(problem, candidate)
        if obj < best_obj:
            best_obj, best_beta = obj, candidate
    if best_beta is None:
        raise SingularSystemError("no nonsingular row subset; design is rank deficient")
    return _finish(best_beta, best_obj, "vertex-oracle")


def exact_l2_solution(data: DataMatrix) -> RegressionSolution:
    """Exact least squares on the original data (loss is the squared l2 norm)."""
    beta = qr_least_squares(data.X, data.y)
    residual = data.X @ beta - data.y
    return _finish(beta, float(residual @ residual), "qr")


def exact_l1_solution(data: DataMatrix) -> RegressionSolution:
    """Reference LAD solution on the original data.

    Uses the vertex oracle when the instance is small enough, otherwise a
    tight-tolerance IRLS run.
    """
    problem = SketchProblem(data.A)
    n, d = data.n, data.d
    if n <= _ORACLE_MAX_ROWS and d <= _ORACLE_MAX_COLS:
        return lad_vertex_oracle(problem)
    return solve_l1_weighted(problem, tol=1e-12, max_iter=2000)


def approximation_ratio(data: DataMatrix, sol: RegressionSolution, norm: str) -> RatioReport:
    """Loss of ``sol`` on the original data relative to the exact optimum.

    For ``norm="l2"`` losses are squared l2 norms; for ``norm="l1"`` plain
    l1 norms. When the exact loss is (numerically) zero the ratio is
    undefined and the absolute excess is reported instead.
    """
    if norm not in ("l1", "l2"):
        raise ParameterError("norm must be 'l1' or 'l2'")
    residual = data.X @ sol.beta - data.y
    if norm == "l2":
        loss_sol = float(residual @ residual)
        loss_star = exact_l2_solution(data).sketch_loss
    else:
        loss_sol = float(np.abs(residual).sum())
        loss_star = exact_l1_solution(data).sketch_loss
    if loss_star <= 1e-12 * max(1.0, loss_sol):
        return RatioReport(value=loss_sol - loss_star, kind="absolute-excess")
    return RatioReport(value=loss_sol / loss_star, kind="ratio")
