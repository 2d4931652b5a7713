"""Command-line surface: ``dpsketch sketch | solve | verify``.

``sketch`` ingests a CSV with row-norm certification and writes a private
sketch release; ``solve`` runs the matching regression on a release file;
``verify`` runs one of the named Monte Carlo suites and exits nonzero if any
report fails. Seeds are accepted here for reproducibility of experiments
but never written into release files: publishing the seed voids privacy.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .bounds import _MIN_TRIALS, l1_coeff_bound, ridge_coeff_bound_l2
from .countsketch import private_countsketch_l2
from .dataset import ingest
from .errors import DpSketchError, ParameterError
from .jl import JlConfig, private_jl_sketch
from .l1 import L1SketchConfig, level_count, private_l1_sketch
from .l1 import illustration_sketch_private  # noqa: F401  (hook site of perfbench/tracer.py)
from .mechanisms import PrivacyParams, RowBound
from .sketchfile import METHODS, SketchFile, read_sketch, write_sketch
from .solvers import SketchProblem, solve_l1_weighted, solve_l2_sketch
from .suites import SUITES

_METHOD_OF_FLAG = {spec.flag: method for method, spec in METHODS.items()}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpsketch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sk = sub.add_parser("sketch", help="release a private sketch of a CSV dataset")
    sk.add_argument("--method", required=True, choices=sorted(_METHOD_OF_FLAG))
    sk.add_argument("--epsilon", type=float, required=True)
    sk.add_argument("--delta", type=float, required=True)
    sk.add_argument("--bound", type=float, required=True, help="certified row l2 bound B")
    sk.add_argument("--rows", type=int, required=True, help="sketch row budget r")
    sk.add_argument("--b", type=float, default=L1SketchConfig.b, help="branching parameter (l1 only)")
    sk.add_argument("--s", type=int, default=L1SketchConfig.s, help="level-0 sparsity (l1 only)")
    sk.add_argument("--nu", type=int, default=L1SketchConfig.N_u, help="uniform-level buckets (l1 only)")
    sk.add_argument("--seed", type=int, required=True)
    sk.add_argument("--in", dest="input", required=True, metavar="DATA.CSV")
    sk.add_argument("--out", dest="output", required=True, metavar="SKETCH.DPS")
    sk.add_argument("--delimiter", default=",")
    sk.add_argument("--header", action="store_true", help="first CSV row is a header")
    sk.add_argument("--response", default="-1", help="response column name or index (default: last)")
    sk.add_argument("--clip", choices=("scale", "reject"), default="scale")

    so = sub.add_parser("solve", help="solve the regression problem on a released sketch")
    so.add_argument("--norm", choices=("l1", "l2"), help="default: the norm of the release's method")
    so.add_argument("--in", dest="input", required=True, metavar="SKETCH.DPS")
    so.add_argument("--json", dest="json_out", default=None, metavar="OUT.JSON")

    ve = sub.add_parser("verify", help="run a Monte Carlo verification suite")
    ve.add_argument("--suite", required=True, choices=sorted(SUITES))
    ve.add_argument("--trials", type=int, default=None, help="draws (tail suites) or seeds (others)")
    ve.add_argument("--seed", type=int, default=0)
    return parser


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ParameterError(f"--seed must be at least 0, got {seed}")


def _cmd_sketch(args) -> int:
    _check_seed(args.seed)
    pp = PrivacyParams(args.epsilon, args.delta)
    bound = RowBound(args.bound)
    result = ingest(
        args.input, bound, clip=args.clip, delimiter=args.delimiter,
        has_header=args.header, response_column=args.response,
    )
    data = result.data
    if result.rescaled_rows:
        print(f"warning: rescaled {result.rescaled_rows} row(s) to norm B = {bound.B:g}")

    method = _METHOD_OF_FLAG[args.method]
    weights = None
    # The release's summary is printed once its file is written, not before
    # SketchFile or write_sketch can refuse it.
    summary = []
    if method == "jl":
        sketch, jl_meta = private_jl_sketch(data, JlConfig(args.rows, pp, bound, args.seed))
        meta = dataclasses.asdict(jl_meta)
        summary.append(f"branch: {jl_meta.branch}  (w^2 = {jl_meta.w_squared:.6g}, c = {jl_meta.c:.6g})")
        if jl_meta.utility_warning:
            summary.append(f"warning: utility factor 1 + c^2 = {1 + jl_meta.c**2:.3g} is large")
    else:
        if method == "l1-multilevel":
            h_m = level_count(data.n, args.b)
            n_level = _split_l1_budget(args.rows, h_m, args.s, args.nu)
            cfg = L1SketchConfig(
                pp=pp, bound=bound, seed=args.seed, N=n_level, b=args.b, s=args.s, N_u=args.nu,
            )
            ws = private_l1_sketch(data, cfg)
            sketch, weights = ws.rows, ws.weights
            sigma, noise_rows, patched = ws.sigma, ws.noise_rows, ws.patched
            meta = {"h_m": ws.h_m, "b": cfg.b, "s": cfg.s, "N": cfg.N, "N_u": cfg.uniform_buckets,
                    "footprint": cfg.s + ws.h_m}
            occupancy = ", ".join(f"{h}:{c}" for h, c in enumerate(ws.data_level_counts))
            summary.append(f"levels h_m = {ws.h_m}, data rows per level {{{occupancy}}}")
        else:
            signed = method == "countsketch-l2"
            sketch, plan = private_countsketch_l2(data, args.rows, pp, bound, args.seed, signed=signed)
            sigma, noise_rows, patched = plan.sigma, plan.p, plan.patched
            meta = {}
        meta.update(sigma=sigma, noise_rows=noise_rows, patched=patched)
        summary.append(f"noise sigma: {sigma:.6g}  noise rows: {noise_rows} (+{patched} patched)")

    release = SketchFile(
        method=method, matrix=sketch, epsilon=pp.epsilon, delta=pp.delta, B=bound.B,
        meta=meta, weights=weights,
    )
    # The bounds hold for unit row weights; a weighted release (l1-multilevel,
    # row weights b^h) gets none, as its weighted noise can exceed them.
    if "sigma" in meta and release.r >= 2 and not METHODS[method].weighted:
        norm = METHODS[method].norm
        coeff_bound = ridge_coeff_bound_l2 if norm == "l2" else l1_coeff_bound
        advisory = coeff_bound(meta["sigma"], release.r, [1.0])
        summary.append(f"{norm} regularization bound at ||beta_aug|| = 1: {advisory:.6g}")
    write_sketch(args.output, release)
    for line in summary:
        print(line)
    print(f"wrote {release.r} x {release.d + 1} {method} sketch to {args.output}")
    return 0


def _split_l1_budget(rows: int, h_m: int, s: int, n_u: "int | None") -> int:
    """Choose N (a multiple of s) so N*h_m + N_u fits the requested row budget."""
    if s < 1:
        raise ParameterError(f"level-0 sparsity --s must be at least 1, got {s}")
    if n_u is None:
        n_level = rows // (h_m + 1)
    else:
        n_level = (rows - n_u) // h_m
    n_level -= n_level % s
    if n_level < s:
        raise ParameterError(f"row budget {rows} too small for h_m = {h_m} levels with s = {s}")
    return n_level


def _cmd_solve(args) -> int:
    release = read_sketch(args.input)
    norm = METHODS[release.method].norm
    if args.norm not in (None, norm):
        raise ParameterError(f"method {release.method!r} must be solved with --norm {norm}, not {args.norm}")
    problem = SketchProblem(release.matrix, weights=release.weights)
    if norm == "l2":
        sol = solve_l2_sketch(problem)
    else:
        sol = solve_l1_weighted(problem)

    print(f"method: {release.method}  solver: {sol.method}")
    print("beta:", " ".join(f"{v:.10g}" for v in sol.beta))
    print(f"sketch loss: {sol.sketch_loss:.10g}")
    if norm == "l1":
        state = "certified optimal" if sol.converged else "NOT certified"
        print(f"l1: {state} after {sol.iterations} pivot(s)")
    if args.json_out:
        payload = {
            "method": release.method,
            "solver": sol.method,
            "beta": sol.beta.tolist(),
            "beta_aug": sol.beta_aug.tolist(),
            "sketch_loss": sol.sketch_loss,
            "converged": sol.converged,
            "iterations": sol.iterations,
        }
        with open(args.json_out, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote solution to {args.json_out}")
    return 0


def _cmd_verify(args) -> int:
    _check_seed(args.seed)
    if args.trials is not None and args.trials < _MIN_TRIALS:
        raise ParameterError(f"--trials must be at least {_MIN_TRIALS}, got {args.trials}")
    suite = SUITES[args.suite]
    reports = suite(args.trials, args.seed) if args.trials is not None else suite(seed=args.seed)
    failed = 0
    for rep in reports:
        line = (
            f"[{rep.verdict.upper():4s}] {rep.bound_name}: "
            f"{rep.exceedances}/{rep.trials} exceedances "
            f"(rate {rep.exceedance_rate:.4f}, threshold {rep.threshold_prob:g}, "
            f"bound {rep.analytic_value:.6g})"
        )
        print(line)
        failed += rep.verdict != "pass"
    print(f"suite {args.suite}: {len(reports) - failed}/{len(reports)} checks passed")
    return 0 if failed == 0 else 1


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "sketch":
            return _cmd_sketch(args)
        if args.command == "solve":
            return _cmd_solve(args)
        return _cmd_verify(args)
    except (DpSketchError, OSError, MemoryError) as exc:
        # MemoryError: numpy refused an allocation, say for a --rows budget no
        # address space holds. The file is written after the release, so none is left.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
