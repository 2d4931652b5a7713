"""Exact weighted LAD on tiny instances by vertex enumeration: the reference
the vertex-descent solver is tested against."""

import itertools

import numpy as np

from dpsketch.errors import ParameterError, SingularSystemError
from dpsketch.solvers import RegressionSolution, SketchProblem

# Vertex enumeration is combinatorial; refuse anything beyond this.
MAX_ROWS = 25
MAX_COLS = 3


def l1_objective(problem: SketchProblem, beta) -> float:
    """Weighted l1 loss ``sum_i w_i |x_i beta - y_i|`` of ``beta`` on ``problem``."""
    residual = problem.design @ np.asarray(beta, dtype=float) - problem.target
    return float(problem.effective_weights() @ np.abs(residual))


def lad_vertex_oracle(problem: SketchProblem) -> RegressionSolution:
    """Exact weighted LAD on tiny instances by enumerating d-row interpolations.

    The optimum of a (weighted) LAD problem with a full-rank design
    interpolates d rows, so trying every size-d subset is exact. Guarded to
    r <= 25, d <= 3.
    """
    design, target = problem.design, problem.target
    r, d = design.shape
    if r > MAX_ROWS or d > MAX_COLS:
        raise ParameterError(f"vertex oracle refuses instances beyond {MAX_ROWS} rows / {MAX_COLS} cols")
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
    return RegressionSolution(
        beta=best_beta, beta_aug=np.append(best_beta, -1.0), sketch_loss=best_obj, method="vertex-oracle"
    )
