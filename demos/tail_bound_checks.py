"""Every noise bound comes with a Monte Carlo verifier; run them all.

The bound calculators are closed-form; ``verify_tail_bound`` samples the
noise statistic and counts how often it exceeds the bound. Each claim is of
the "with probability at least 3/4" kind, so the verifiers check empirical
exceedance <= 1/4 (plus two binomial standard deviations of slack).

Run: python demos/tail_bound_checks.py
"""

import numpy as np

import dpsketch as dps
from dpsketch.suites import SUITES

pp = dps.PrivacyParams(epsilon=1.0, delta=0.05)
bound = dps.RowBound(1.0)

print("=== one bound, by hand ===")
r = 64
beta_aug = np.array([0.5, -0.5, 1.0, -1.0])
sigma = dps.gaussian_sigma(dps.bucket_sensitivity(bound, 1), pp)  # a CountSketch row moves 1 bucket
value = dps.ridge_coeff_bound_l2(sigma, r, beta_aug)
print(f"ridge coefficient bound at r = {r}, sigma = {sigma:.4f}: {value:.2f}")

spec = dps.GaussianNoiseSpec(rows=dps.noise_row_count(r), sigma=sigma, beta_aug=beta_aug)
report = dps.verify_tail_bound(spec, "l2", value, threshold_prob=0.25, trials=10_000, seed=1)
print(f"empirical Pr(||eta beta|| >= bound) = {report.exceedance_rate:.4f} "
      f"-> verdict: {report.verdict}\n")

print("=== the full suite collection ===")
for name, suite in SUITES.items():
    for rep in suite(seed=0):
        print(f"[{rep.verdict.upper():4s}] {rep.bound_name}: "
              f"{rep.exceedances}/{rep.trials} exceedances "
              f"(threshold {rep.threshold_prob:g})")
print("\nsame thing from the command line:  dpsketch verify --suite thm1 --trials 10000 --seed 0")
