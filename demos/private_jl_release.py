"""Releasing a private JL sketch and solving least squares on it.

Walks the whole l2 pipeline: the privacy threshold w, the noisy rank test,
spectral augmentation with c*Q (and why it does not regularize), and the
quality of the solution recovered from the released sketch.

Run: python demos/private_jl_release.py
"""

import numpy as np

import dpsketch as dps
from dpsketch.linalg import tall_skinny_r

pp = dps.PrivacyParams(epsilon=1.0, delta=0.05)
bound = dps.RowBound(1.0)
r = 256

print("=== privacy threshold ===")
w_sq = dps.threshold_w_squared(bound, pp, r)
print(f"r = {r}, epsilon = {pp.epsilon}, delta = {pp.delta}")
print(f"w^2 = {w_sq:.2f}; the noisy test asks whether sigma_min(A)^2 clears it\n")

# A planted regression instance. Because y sits close to the column span of
# X, the stacked matrix [X | y] has a *small* minimum singular value, so the
# test will fail and the release will spectrally augment.
data = dps.synthetic_regression(n=2000, d=3, seed=50, noise=0.05, beta_scale=1.0)
smin = np.linalg.svd(data.A, compute_uv=False)[-1]
print(f"sigma_min(A) = {smin:.4f}  (sigma_min^2 = {smin**2:.4f}, threshold ~ {w_sq:.1f})")

sketch, meta = dps.private_jl_sketch(data, dps.JlConfig(r, pp, bound, seed=7))
print(f"released sketch: {sketch.shape}, branch = {meta.branch}, c = {meta.c:.2f}")
print(f"utility factor 1 + c^2 = {1 + meta.c**2:.1f} "
      f"(inflates the sketched loss, never the argmin)\n")

print("=== why c*Q does not regularize ===")
# Q = V Sigma V^T satisfies Q^T Q = A^T A, so [A; cQ] has the same normal
# equations as A up to the scalar (1 + c^2): identical least-squares argmin.
# The release never forms Q: the R factor of A has R^T R = A^T A too, so
# [A; cQ]^T [A; cQ] = (1 + c^2) R^T R, and the release is drawn as
# sqrt(1 + c^2) G R with G an r x (d+1) Gaussian, the law of S [A; cQ].
_, s, vt = np.linalg.svd(data.A, full_matrices=False)
q = (vt.T * s) @ vt
r_factor = tall_skinny_r(data.A)
beta_probe = np.array([0.3, -1.0, 0.2, -1.0])
print(f"||Q beta|| = {np.linalg.norm(q @ beta_probe):.6f}")
print(f"||R beta|| = {np.linalg.norm(r_factor @ beta_probe):.6f}")
print(f"||A beta|| = {np.linalg.norm(data.A @ beta_probe):.6f}  (all equal by construction)\n")

print("=== solving on the release ===")
solution = dps.solve_l2_sketch(dps.SketchProblem(sketch))
exact = dps.exact_l2_solution(data)
print("beta from sketch :", np.round(solution.beta, 4))
print("beta exact       :", np.round(exact.beta, 4))
ratio = dps.approximation_ratio(data, solution, "l2")
print(f"approximation ratio on the original data: {ratio.value:.4f}\n")

print("=== the no-augment branch ===")
# Well-conditioned data (unit rows, no planted collinearity) clears the
# threshold and is released as a plain projection S A.
rng = np.random.default_rng(0)
rows = rng.standard_normal((2000, 4))
rows /= np.linalg.norm(rows, axis=1, keepdims=True)
conditioned = dps.DataMatrix(rows, bound)
_, meta2 = dps.private_jl_sketch(conditioned, dps.JlConfig(16, pp, bound, seed=3))
print(f"unit-sphere rows: sigma_min^2 = {np.linalg.svd(rows, compute_uv=False)[-1]**2:.1f} "
      f"-> branch = {meta2.branch}")
