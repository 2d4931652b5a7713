"""Private CountSketch for l2 regression: noise-row augmentation in action.

Shows the 2B sensitivity of a fixed plan (the buckets and signs a release
draws for its first rows at its assignment seed, which two same-seed releases
of neighbouring datasets share), the coupon-collector noise block, drawn
per bucket (bucket b gets the noise of its c_b ~ Multinomial(p, 1/r) noise
rows, at least one), the implicit ridge effect of the appended noise, the analytic bound
on the regularization coefficient, and why the seed stays secret: a second
release with the same seed strips the noise.

Run: python demos/private_countsketch_release.py
"""

import numpy as np

import dpsketch as dps
from dpsketch.countsketch import countsketch_apply, draw_countsketch_plan

pp = dps.PrivacyParams(epsilon=1.0, delta=0.05)
bound = dps.RowBound(1.0)

print("=== sensitivity of a fixed plan: the release's own assignment ===")
rng = np.random.default_rng(1)
n = 100
a = rng.standard_normal((n, 4))
a /= np.maximum(np.linalg.norm(a, axis=1, keepdims=True), 1.0)
a_neighbor = a.copy()
a_neighbor[17] = -a[17]  # swap one row for another bounded row
plan = draw_countsketch_plan(n, r=8, seed=5)
diff = countsketch_apply(plan, a) - countsketch_apply(plan, a_neighbor)
print(f"rows changed in SA: {int((np.abs(diff).max(axis=1) > 0).sum())} (exactly one bucket)")
print(f"||SA - SA'||_2 = {np.linalg.norm(diff):.4f} <= 2B = {dps.bucket_sensitivity(bound, 1)}\n")

print("=== the released sketch ===")
data = dps.synthetic_regression(n=2000, d=5, seed=900, noise=0.05, beta_scale=0.1)
r = 64
sketch, noise_plan = dps.private_countsketch_l2(data, r, pp, bound, seed=42)
print(f"shape {sketch.shape}; sigma = {noise_plan.sigma:.4f} "
      f"(Gaussian mechanism at sensitivity 2B)")
print(f"noise rows: {noise_plan.p} = ceil(r (ln r + 4)), patched buckets: {noise_plan.patched}")
print(f"every bucket carries the noise of >= 1 noise row: min coverage = {noise_plan.coverage.min()}\n")

print("=== ridge effect and its analytic bound ===")
solution = dps.solve_l2_sketch(dps.SketchProblem(sketch))
exact = dps.exact_l2_solution(data)
residual = data.X @ solution.beta - data.y
excess = float(residual @ residual) - exact.sketch_loss
bound_at_solution = dps.ridge_coeff_bound_l2(noise_plan.sigma, r, solution.beta_aug)
print(f"||beta|| under noise: {np.linalg.norm(solution.beta):.4f} "
      f"vs exact {np.linalg.norm(exact.beta):.4f} (noise perturbs and shrinks the fit)")
print(f"excess loss on the original data: {excess:.4f}")
print(f"analytic coefficient bound at the solution: {bound_at_solution:.2f}")
print(f"excess <= bound: {excess <= bound_at_solution}\n")

print("=== whoever holds the seed can strip the noise ===")
# Same seed and n: the same plan and the same bucket noise, so they cancel.
zeros, _ = dps.private_countsketch_l2(np.zeros_like(data.A), r, pp, bound, seed=42)
plain = sketch - zeros
sol0 = dps.solve_l2_sketch(dps.SketchProblem(plain))
print("release minus a same-seed release of zeros is the plain CountSketch of A;")
print("its solution tracks the exact one:", np.round(sol0.beta - exact.beta, 4))
print("this is why the seed must never be published")
