"""The multi-level weighted sketch for least absolute deviations.

Builds the level structure (CountMin-style level 0, geometrically thinned
middle levels, a uniform tail level) and compares each level's data rows
with the n / b^h that a Bernoulli(1/b^h) membership per row gives on
average (a level draws a binomial count of members, then which rows they
are). Shows the oblivious weights b^h and solves the weighted LAD problem on
the release. Finishes by subtracting a same-seed release of all-zero data,
which strips the privacy noise and isolates the sketching error: anyone
holding the seed could do the same.

Run: python demos/private_l1_release.py
"""

import numpy as np

import dpsketch as dps

pp = dps.PrivacyParams(epsilon=1.0, delta=0.05)
bound = dps.RowBound(10.0)

# Heavy-tailed residuals are where LAD beats least squares.
rng = np.random.default_rng(77)
n, d = 5000, 3
x = rng.standard_normal((n, d))
beta0 = np.array([1.0, -2.0, 0.5])
y = x @ beta0 + 0.5 * rng.laplace(size=n)
a = np.column_stack([x, y])
a *= bound.B / dps.max_row_norm(a)
data = dps.DataMatrix(a, bound)

print("=== level structure ===")
cfg = dps.L1SketchConfig(pp=pp, bound=bound, seed=3, N=200, b=2.0, s=1)
ws = dps.private_l1_sketch(data, cfg)
print(f"h_m = {ws.h_m} levels of {cfg.N} buckets + {cfg.N_u} uniform buckets "
      f"-> r = {ws.r} rows")
print("data rows per level:", dict(enumerate(ws.data_level_counts.tolist())))
print("expected, n / b^h  :", {h: round(n / cfg.b**h, 1) for h in range(ws.h_m + 1)})
print("weights by level   :", {h: float(ws.weights[ws.level_of == h][0]) for h in range(ws.h_m + 1)})
print(f"a data row touches at most s + h_m = {ws.s + ws.h_m} buckets "
      f"(observed max {ws.max_data_memberships})")
print(f"noise: sigma = {ws.sigma:.2f} (sensitivity 2B sqrt(s + h_m)), "
      f"{ws.noise_rows} rows + {ws.patched} patches\n")

print("=== solving the weighted LAD problem on the release ===")
solution = dps.solve_l1_weighted(dps.SketchProblem(ws.rows, ws.weights))
exact = dps.exact_l1_solution(data)
print("beta from private sketch:", np.round(solution.beta, 3))
print("beta exact              :", np.round(exact.beta, 3))
# No regularization bound is printed: l1_coeff_bound holds for unit row
# weights, and this release weights level h by b^h.
print()

print("=== whoever holds the seed can strip the noise ===")
# Same seed and n: the same levels, buckets and noise rows, so they cancel.
# That isolates the sketching error, and is why the seed is never published.
ratios = []
for seed in range(10):
    cfg = dps.L1SketchConfig(pp=pp, bound=bound, seed=seed, N=200, b=2.0)
    release = dps.private_l1_sketch(data, cfg)
    clean = release.rows - dps.private_l1_sketch(np.zeros_like(a), cfg).rows
    sol = dps.solve_l1_weighted(dps.SketchProblem(clean, release.weights))
    ratios.append(dps.approximation_ratio(data, sol, "l1").value)
print(f"l1 approximation ratio over 10 sketch seeds: "
      f"median {np.median(ratios):.3f}, max {max(ratios):.3f}")
print("the multi-level sketch preserves the LAD objective up to a constant")
