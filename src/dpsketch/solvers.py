"""Sketch-and-solve back ends.

A released sketch is an ``r x (d+1)`` matrix whose last column plays the
role of the response, so every solver works on the augmented vector
``beta_aug = [beta; -1]`` and minimizes ``||M beta_aug||`` (optionally
weighted). Least squares goes through ``linalg.qr_least_squares``: one
blocked Householder QR of the (weighted) ``[X | y]`` as it lies, with ``Q``
never formed. Least absolute deviations is solved exactly by vertex descent
started from that least-squares fit, and each result carries a dual
certificate of optimality: the dual of its last vertex, which like every
vertex's is computed from scratch. On tall problems the descent first runs
on a core of the rows nearest the least-squares fit, after
Portnoy & Koenker (1997): every other row keeps its sign at that fit and
adds one fixed term to the dual. The descent over all rows then starts from
the core's last basis, so the certificate is still taken on every row.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import DataMatrix
from .errors import ParameterError, SingularSystemError
from .linalg import as_matrix, qr_least_squares

# Vertex descent. Pivots run on the target plus a fixed tie-breaking vector
# with entries up to _TIE_BREAK * max|M|; without it, exact fits and
# duplicated rows cycle. A basic dual within 1 + _DUAL_SLACK of its bound
# counts as feasible, which bounds the loss by 1 + _DUAL_SLACK times the
# optimum. The certificate treats a residual below _ZERO_RESIDUAL of its
# row's scale ||x_i|| ||beta|| + |y_i| as zero, whatever its sign. The scale
# takes norms because a component of beta that is zero in exact arithmetic
# carries a rounding error of the size of all of beta: with |x_i| |beta|
# taken entrywise, integer rows that meet only such components had a scale
# no larger than that error, and a zero residual read as a sign. Pivot counts
# grow with d (about 3.3 d on random designs up to d = 100), so the cap is
# per column: 500 pivots at d = 10.
_TIE_BREAK = 1e-9
_TIE_BREAK_SEED = 1973
_DUAL_SLACK = 1e-9
_ZERO_RESIDUAL = 1e-11
_PIVOTS_PER_COLUMN = 50
# Start basis: a row is independent of those taken when the part of it
# orthogonal to them is at least _INDEPENDENT of its norm. Candidates are
# tested _START_BATCH rows at a time.
_INDEPENDENT = 1e-8
_START_BATCH = 64
# Partial selection: both the entering row and the start basis sort a head
# of the _HEAD smallest keys and grow it _HEAD_GROWTH-fold while it falls
# short. The entering row lies early: on synthetic_regression 200k x 10
# problems (about 1e5 crossings per pivot) the head grew at 1 of 143 pivots.
# A head that would hold over 1/_HEAD_SHARE of the keys sorts them all: for
# up to about 1000 keys one full sort is as fast as the partition.
_HEAD = 256
_HEAD_GROWTH = 8
_HEAD_SHARE = 4
# Core: the descent first runs on the _CORE * (d n)^(2/3) rows nearest the
# least-squares fit, when they are at most 1/_CORE_SHARE of the rows.
_CORE = 0.75
_CORE_SHARE = 4


@dataclass(frozen=True)
class SketchProblem:
    """A released sketch plus optional finite positive per-row weights."""

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
            if not np.all(np.isfinite(w) & (w > 0)):
                raise ParameterError("weights must be finite and strictly positive")
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
    beta = qr_least_squares(problem.M if problem.weights is None else problem.M * np.sqrt(w)[:, None])
    residual = problem.design @ beta - problem.target
    return _finish(beta, w @ residual**2, "qr")


class _Vertex(NamedTuple):
    """A vertex of the descent: the point interpolating the ``basis`` rows."""

    basis: np.ndarray
    inverse: np.ndarray  # X_B^{-1}
    residual: np.ndarray  # X beta - y, exactly zero on the basis
    sign: np.ndarray  # sign(residual)
    optimal: bool  # no dual bound |t_j| <= w_j is broken


def _inverse(design, basis) -> np.ndarray:
    """``X_B^{-1}``, solved afresh at every vertex."""
    try:
        return np.linalg.inv(design[basis])
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError("LAD basis is singular; design is rank deficient") from exc


def _fresh(design, target, w, basis, inverse, glob):
    """Residual, sign and ``X^T (w * sign)``, plus ``glob`` if given, at
    ``basis``, computed from scratch."""
    residual = design @ (inverse @ target[basis]) - target
    residual[basis] = 0.0
    sign = np.sign(residual)
    g = design.T @ (w * sign)
    return residual, sign, g if glob is None else g + glob


def _ascending(values, k: int, kind: str) -> np.ndarray:
    """A prefix of the ascending order of ``values`` that holds the ``k``
    smallest and every value tied with the largest of them, sorted by
    ``kind``: the whole order once ``k`` is over 1/_HEAD_SHARE of the values.
    With "stable" it is a prefix of ``np.argsort(values, kind="stable")``."""
    if _HEAD_SHARE * k >= values.size:
        return np.argsort(values, kind=kind)
    head = np.flatnonzero(values <= np.partition(values, k - 1)[k - 1])
    return head[np.argsort(values[head], kind=kind)]


def _descent(design, target, w, basis, glob=None):
    """Yield the vertices of the descent from ``basis``, ending at an optimal one.

    At each vertex the dual ``t`` solves ``X_B^T t = -X_N^T (w * sign)``: it
    completes ``w * sign`` on the nonbasic rows to a vector ``lambda`` with
    ``X^T lambda = 0``, and moving off basic row ``j`` changes the loss at
    rate ``w_j - |t_j|``. The vertex is optimal when no bound ``|t_j| <= w_j``
    is broken; otherwise the basic row that breaks it the most leaves.

    The entering row is the weighted median along that edge, on which the
    residuals move as ``residual + tau * a``. The loss slope starts at
    ``w_j - |t_j| < 0`` and rises by ``2 w_i |a_i|`` as ``tau`` crosses row
    ``i``'s zero ``-residual_i / a_i``; the step ends at the first zero
    where the slope stops being negative. When no nonbasic residual is
    zero, each pivot strictly lowers the loss. Only the crossings nearest
    zero are sorted: a head of ``_HEAD`` of them, grown ``_HEAD_GROWTH``-fold
    until the slope turns within it or it holds them all.

    Every vertex computes its residual, sign and ``g = X^T (w * sign)``
    from scratch (``_fresh``), so a pivot reads the design three times: for
    the residual, for ``g`` and for the edge direction ``a``.

    ``glob``, when given, is the fixed part ``X_G^T (w_G * sign_G)`` of
    ``g`` from rows outside ``design`` whose signs are held. A step whose
    slope does not turn among the crossings of ``design`` would cross those
    rows, so the descent ends there, at a vertex that is not optimal.
    """
    basis = np.array(basis)
    while True:
        inverse = _inverse(design, basis)
        residual, sign, g = _fresh(design, target, w, basis, inverse, glob)
        dual = -inverse.T @ g
        excess = np.abs(dual) - w[basis]
        j = int(np.argmax(excess))
        optimal = not excess[j] > _DUAL_SLACK * w[basis][j]
        yield _Vertex(basis.copy(), inverse, residual, sign, optimal)
        if optimal:
            return
        a = design @ (np.sign(dual[j]) * inverse[:, j])
        rows = np.flatnonzero(residual * a < 0)
        crossings = -residual[rows] / a[rows]
        descent = abs(dual[j]) - w[basis[j]]
        order = _ascending(crossings, _HEAD, "quicksort")
        while True:
            crossed = rows[order]
            rise = np.cumsum(2.0 * w[crossed] * np.abs(a[crossed]))
            stop = int(np.searchsorted(rise, descent))
            if stop < rise.size or rise.size == rows.size:
                break
            order = _ascending(crossings, _HEAD_GROWTH * order.size, "quicksort")
        if stop == rise.size and glob is not None:
            return
        basis[j] = crossed[min(stop, rise.size - 1)]


def _start_basis(design, residual) -> np.ndarray:
    """d linearly independent rows, taken greedily by smallest ``|residual|``.

    A row joins when its part orthogonal to the rows already taken is at
    least ``_INDEPENDENT`` of its norm, so duplicated rows are skipped.
    Columns are scaled to unit norm first, which changes no row set's rank
    but keeps a column of small scale from reading as dependence. Rows are
    ranked by a head of ``_HEAD`` smallest, grown ``_HEAD_GROWTH``-fold
    whenever the next batch runs past it, up to the full stable order.
    """
    r, d = design.shape
    column_scale = np.sqrt(np.einsum("ij,ij->j", design, design))
    magnitude = np.abs(residual)
    order = _ascending(magnitude, _HEAD, "stable")
    basis, q, pos = [], np.zeros((0, d)), 0
    while len(basis) < d and pos < r:
        if order.size < min(pos + _START_BATCH, r):
            order = _ascending(magnitude, _HEAD_GROWTH * order.size, "stable")
            continue
        idx = order[pos : pos + _START_BATCH]
        rows = design[idx] / column_scale
        part = rows - (rows @ q.T) @ q
        part -= (part @ q.T) @ q  # second pass keeps q orthonormal
        norms = np.linalg.norm(part, axis=1)
        ok = np.flatnonzero(norms > _INDEPENDENT * np.linalg.norm(rows, axis=1))
        if ok.size == 0:
            pos += idx.size
            continue
        k = int(ok[0])
        basis.append(int(idx[k]))
        q = np.vstack([q, part[k] / norms[k]])
        pos += k + 1
    if len(basis) < d:
        raise SingularSystemError("fewer independent rows than columns; design is rank deficient")
    return np.array(basis)


def _tie_breaker(rows: int, scale: float) -> np.ndarray:
    """The fixed perturbation of the target, entries uniform in ``[-scale, scale]``."""
    return scale * np.random.default_rng(_TIE_BREAK_SEED).uniform(-1.0, 1.0, rows)


def _walk(design, target, w, basis, cap: int, glob=None):
    """The pivots taken and the last vertex of the descent, stopping after ``cap`` pivots."""
    for pivots, vertex in enumerate(itertools.islice(_descent(design, target, w, basis, glob), cap + 1)):
        pass
    return pivots, vertex


def _core_walk(design, target, w, residual, basis, cap: int):
    """The pivots taken and the last basis of the descent on the core, from ``basis``.

    The core is the ``_CORE * (d n)^(2/3)`` rows of smallest ``|residual|``,
    plus ``basis``; every other row keeps its sign in ``residual`` and adds
    one fixed term to the dual. When the core would hold over
    1/``_CORE_SHARE`` of the rows there is no core: no pivots, and ``basis``.
    """
    n, d = design.shape
    size = math.ceil(_CORE * (d * n) ** (2 / 3))
    if _CORE_SHARE * size > n:
        return 0, basis
    magnitude = np.abs(residual)
    outside = magnitude > np.partition(magnitude, size - 1)[size - 1]
    outside[basis] = False
    core = np.flatnonzero(~outside)
    glob = design.T @ np.where(outside, w * np.sign(residual), 0.0)
    start = np.searchsorted(core, basis)
    pivots, vertex = _walk(design[core], target[core], w[core], start, cap, glob)
    return pivots, core[vertex.basis]


def _on_target(design, target, vertex: _Vertex):
    """``vertex.basis`` solved on ``target``: beta, residual, and whether every
    residual above ``_ZERO_RESIDUAL`` of its row's scale has the sign in ``vertex``."""
    beta = vertex.inverse @ target[vertex.basis]
    residual = design @ beta - target
    scale = np.sqrt(np.einsum("ij,ij->i", design, design)) * np.linalg.norm(beta) + np.abs(target)
    moved = np.abs(residual) > _ZERO_RESIDUAL * scale
    return beta, residual, bool(np.all(np.sign(residual[moved]) == vertex.sign[moved]))


def solve_l1_weighted(problem: SketchProblem) -> RegressionSolution:
    """Exact weighted least absolute deviations by vertex descent.

    A simplex-style descent over vertices (points interpolating d rows),
    after Barrodale & Roberts (1973). It starts from the d independent rows
    with the smallest least-squares residuals. Each pivot drops the basic
    row whose dual bound ``|t_j| <= w_j`` is broken the most and takes in
    the weighted-median row along that edge. Every vertex computes its
    residuals, signs and dual from scratch. The design is read where it
    lies, as a view of ``problem.M``, and never copied.

    On tall problems the descent first runs on a core (``_core_walk``): the
    ``_CORE * (d n)^(2/3)`` rows with the smallest least-squares residuals,
    which hold the start basis, when they are at most a quarter of the rows.
    Every other row is globbed: it keeps its sign at the least-squares fit,
    adds the fixed term ``X_G^T (w_G * sign_G)`` to the dual and is never a
    crossing. A step whose slope does not turn among the core's crossings
    leaves the core. The descent over all rows then starts from the core's
    last basis, and its first vertex computes residuals, signs and dual on
    every row. A globbed row whose sign was wrong, or a step that left the
    core, only adds pivots there: the result stays exact, and its
    certificate is taken on every row.

    Pivots run on the target plus ``_tie_breaker`` (at most
    ``_TIE_BREAK * max|M|``), so that degenerate data (duplicated rows,
    exact fits) cannot cycle. The final basis is then solved on the
    original target and certified: the dual ``t`` from the perturbed signs
    satisfies ``|t_j| <= (1 + _DUAL_SLACK) w_j``, and every residual above
    ``_ZERO_RESIDUAL`` of its row's scale keeps its perturbed sign. The
    dual then proves the loss is within a factor ``1 + _DUAL_SLACK`` of the
    optimum, up to the residuals counted as zero. Where two residuals lie
    closer than the perturbation, a sign can flip; the descent then goes
    on from that basis on the original target, whose signs are its own.
    ``converged`` reports the certificate and ``iterations`` the pivots,
    core and all-rows together, at most ``_PIVOTS_PER_COLUMN * d`` in all.
    """
    m, design, target, w = problem.M, problem.design, problem.target, problem.effective_weights()
    beta = qr_least_squares(m)
    perturbed = target + _tie_breaker(m.shape[0], _TIE_BREAK * float(max(m.max(), -m.min())))
    residual = design @ beta - perturbed
    cap = _PIVOTS_PER_COLUMN * design.shape[1]
    pivots, basis = _core_walk(design, perturbed, w, residual, _start_basis(design, residual), cap)
    more, vertex = _walk(design, perturbed, w, basis, cap - pivots)
    pivots += more
    beta, residual, signs_kept = _on_target(design, target, vertex)
    if vertex.optimal and not signs_kept:
        more, vertex = _walk(design, target, w, vertex.basis, cap - pivots)
        pivots += more
        beta, residual, signs_kept = _on_target(design, target, vertex)
    certified = vertex.optimal and signs_kept
    return _finish(
        beta, w @ np.abs(residual), "vertex-descent", converged=certified, iterations=pivots
    )


def exact_l2_solution(data: DataMatrix) -> RegressionSolution:
    """Exact least squares on the original data (loss is the squared l2 norm).

    ``data.A`` is already the certified ``[X | y]``, so it is factored as is.
    """
    beta = qr_least_squares(data.A)
    residual = data.X @ beta - data.y
    return _finish(beta, float(residual @ residual), "qr")


def exact_l1_solution(data: DataMatrix) -> RegressionSolution:
    """Exact LAD solution on the original data, certified by ``solve_l1_weighted``."""
    return solve_l1_weighted(SketchProblem(data.A))


def approximation_ratio(data: DataMatrix, sol: RegressionSolution, norm: str) -> RatioReport:
    """Loss of ``sol`` on the original data relative to the exact optimum.

    For ``norm="l2"`` losses are squared l2 norms; for ``norm="l1"`` plain
    l1 norms. When the exact loss is (numerically) zero the ratio is
    undefined and the absolute excess is reported instead. The exact optimum
    is solved on every call; a caller scoring many solutions on fixed data
    solves it once and applies the same rule, ``_ratio_report``, to each.
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
    return _ratio_report(loss_sol, loss_star)


def _ratio_report(loss_sol: float, loss_star: float) -> RatioReport:
    """``loss_sol / loss_star``; when the exact loss is (numerically) zero the
    ratio is undefined and the absolute excess is reported instead."""
    if loss_star <= 1e-12 * max(1.0, loss_sol):
        return RatioReport(value=loss_sol - loss_star, kind="absolute-excess")
    return RatioReport(value=loss_sol / loss_star, kind="ratio")
