"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them). Tolerances are pinned here, not configurable."""

import math
import struct

import numpy as np

import dpsketch as dps
from dpsketch.countsketch import countsketch_apply, draw_countsketch_plan
from dpsketch.jl import gaussian_times_root, jl_project
from dpsketch.linalg import tall_skinny_r
from dpsketch.sketchfile import METHODS

from lad_oracle import lad_vertex_oracle

PP = dps.PrivacyParams(1.0, 0.05)
B1 = dps.RowBound(1.0)
SIGMA_CS = dps.gaussian_sigma(dps.bucket_sensitivity(B1, 1), PP)


def sigma_at(footprint):
    """Gaussian sigma at sensitivity ``2B sqrt(footprint)``.

    The formula and l1 tail-bound checks below take it at footprint 4; a
    multi-level release calibrates at its own footprint ``s + h_m``.
    """
    return dps.gaussian_sigma(dps.bucket_sensitivity(B1, footprint), PP)


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_01_formula_exactness():
    """Calibration formulas reproduce hand-evaluated values to 1e-9 relative."""
    checks = [
        ("threshold_w_squared", dps.threshold_w_squared(B1, PP, 100), 336.0796627631176),
        ("gaussian_sigma", dps.gaussian_sigma(2.0, PP), 5.074544964718078),
        ("ridge_coeff_bound_l2", dps.ridge_coeff_bound_l2(SIGMA_CS, 8, [1.0]), 95.12919359305178),
        ("l1_coeff_bound", dps.l1_coeff_bound(SIGMA_CS, 8, [1.0]), 84.41775683805606),
        (
            "l1_coeff_bound at sigma(2B sqrt(4))",
            dps.l1_coeff_bound(sigma_at(4), 8, [1.0]),
            168.83551367611213,
        ),
    ]
    worst = max(abs(got - want) / abs(want) for _, got, want in checks)
    report("criterion 1: formula exactness", worst <= 1e-9, f"worst rel err {worst:.2e}")


def test_criterion_02_stacked_identity():
    """[A; w I] Gram identity exact to 1e-10 on 100 random A (n=50, d=5)."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        a = rng.standard_normal((50, 5))
        w = rng.uniform(0.5, 10.0)
        stacked = np.vstack([a, w * np.eye(5)])
        diff = np.abs(stacked.T @ stacked - (a.T @ a + w**2 * np.eye(5))).max()
        worst = max(worst, diff)
    report("criterion 2: [A; wI] Gram identity", worst <= 1e-10, f"worst abs err {worst:.2e}")


def test_criterion_03_spectral_augmentation():
    """Augment branch: the released law's sigma_min, sqrt(1 + c^2) sigma_min(A), hits w to 1e-9 rel."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for i in range(100):
        a = rng.standard_normal((40, 5))
        a /= np.maximum(np.linalg.norm(a, axis=1, keepdims=True), 1.0)
        _, meta = dps.private_jl_sketch(dps.DataMatrix(a, B1), dps.JlConfig(16, PP, B1, seed=i))
        assert meta.branch == "spectral-augment" and meta.c > 0
        w = math.sqrt(meta.w_squared)
        smin = np.linalg.svd(a, compute_uv=False)[-1]
        worst = max(worst, abs(math.sqrt(1.0 + meta.c**2) * smin - w) / w)
    report("criterion 3: spectral augmentation", worst <= 1e-9, f"sigma_min rel err {worst:.2e}")


def test_criterion_04_lemma1_tail():
    """Pr(sum |u_i| >= r sigma) <= 0.27 over 1e4 trials for three (r, sigma)."""
    rates = []
    for i, (r, sigma) in enumerate([(10, 1.0), (50, 1.0), (50, 3.0)]):
        spec = dps.GaussianNoiseSpec(rows=r, sigma=sigma, beta_aug=np.array([1.0]))
        rep = dps.verify_tail_bound(
            spec, "l1", dps.l1_tail_bound(r, sigma), 0.25, 10_000, seed=400 + i
        )
        rates.append(rep.exceedance_rate)
    ok = all(rate <= 0.25 + 0.02 for rate in rates)
    report("criterion 4: Lemma-1 tail", ok, "rates " + ", ".join(f"{x:.4f}" for x in rates))


def test_criterion_05_l2_ridge_tail():
    """l2 noise tail under the ridge bound for both noise-row counts, r in {16, 64}."""
    sigma = dps.gaussian_sigma(2.0 * B1.B, PP)
    beta_aug = np.array([1.0, 2.0, -1.0, 0.5, -3.0])
    beta_aug /= np.linalg.norm(beta_aug)
    rates = []
    for i, r in enumerate((16, 64)):
        bound = dps.ridge_coeff_bound_l2(sigma, r, beta_aug)
        for j, p in enumerate((math.ceil(r * math.log(r)), dps.noise_row_count(r))):
            spec = dps.GaussianNoiseSpec(rows=p, sigma=sigma, beta_aug=beta_aug)
            rep = dps.verify_tail_bound(spec, "l2", bound, 0.25, 10_000, seed=500 + 2 * i + j)
            rates.append(rep.exceedance_rate)
    ok = all(rate <= 0.25 + 0.02 for rate in rates)
    report("criterion 5: l2 ridge tail", ok, "rates " + ", ".join(f"{x:.4f}" for x in rates))


def test_criterion_06_l1_bound_tails():
    """Same protocol for the l1 bounds (simple and multi-level), noise-row
    count as the bounds state it (r ln r)."""
    beta_aug = np.array([1.0, 2.0, -1.0, 0.5, -3.0])
    beta_aug /= np.linalg.norm(beta_aug)
    rates = []
    for i, r in enumerate((16, 64)):
        p = math.ceil(r * math.log(r))
        simple = dps.GaussianNoiseSpec(rows=p, sigma=dps.gaussian_sigma(2.0, PP), beta_aug=beta_aug)
        rep = dps.verify_tail_bound(
            simple, "l1", dps.l1_coeff_bound(simple.sigma, r, beta_aug), 0.25, 10_000, seed=600 + i
        )
        rates.append(rep.exceedance_rate)
        multi = dps.GaussianNoiseSpec(rows=p, sigma=sigma_at(4), beta_aug=beta_aug)
        rep = dps.verify_tail_bound(
            multi, "l1", dps.l1_coeff_bound(multi.sigma, r, beta_aug),
            0.25, 10_000, seed=650 + i,
        )
        rates.append(rep.exceedance_rate)
    ok = all(rate <= 0.25 + 0.02 for rate in rates)
    report("criterion 6: l1 bound tails", ok, "rates " + ", ".join(f"{x:.4f}" for x in rates))


def test_criterion_07_jl_distortion():
    """Scaled distortion within [0.65, 1.35] on >= 95% of 200 x 20 pairs.

    ``S V`` for an r x dim Gaussian ``S`` has the law of ``G R`` with ``R``
    the R factor of ``V`` and ``G`` r x 20, so each trial draws 20,000
    normals, not 200,000."""
    r, dim = 1000, 200
    rng = np.random.default_rng(700)
    vectors = rng.standard_normal((dim, 20))
    vectors /= np.linalg.norm(vectors, axis=0)
    root = tall_skinny_r(vectors)
    inside = 0
    for i in range(200):
        projected = gaussian_times_root(root, r, seed=np.random.SeedSequence([700, i]))
        scaled = np.linalg.norm(projected, axis=0) ** 2 / r
        inside += int(((scaled >= 0.65) & (scaled <= 1.35)).sum())
    frac = inside / (200 * 20)
    report("criterion 7: JL distortion", frac >= 0.95, f"in-band fraction {frac:.4f}")


def test_criterion_08_sketch_and_solve_l2():
    """Non-private JL at r = ceil(50 d ln d): median approximation ratio <= 1.5."""
    n, d = 5000, 5
    r = math.ceil(50 * d * math.log(d))
    data = dps.synthetic_regression(n, d, seed=800, noise=0.1, beta_scale=1.0)
    ratios = []
    for i in range(100):
        sketch = jl_project(data.A, r, seed=np.random.SeedSequence([800, i]))
        sol = dps.solve_l2_sketch(dps.SketchProblem(sketch))
        rep = dps.approximation_ratio(data, sol, "l2")
        assert rep.kind == "ratio"
        ratios.append(rep.value)
    med = float(np.median(ratios))
    report("criterion 8: sketch-and-solve l2 utility", med <= 1.5, f"median ratio {med:.4f}")


def test_criterion_09_private_l2_end_to_end():
    """Private l2 releases (JL and CountSketch): finite loss, and excess over
    the optimum within the ridge bound at the solution in >= 50% of seeds."""
    r = 64
    results = []
    for eps in (1.0, 4.0):
        pp = dps.PrivacyParams(eps, 0.05)
        data = dps.synthetic_regression(2000, 5, seed=900, noise=0.05, beta_scale=0.1)
        loss_star = dps.exact_l2_solution(data).sketch_loss
        for method in ("countsketch", "jl"):
            hits = 0
            for i in range(100):
                if method == "countsketch":
                    sk, _ = dps.private_countsketch_l2(data, r, pp, B1, seed=9000 + i)
                else:
                    sk, _ = dps.private_jl_sketch(data, dps.JlConfig(r, pp, B1, seed=9500 + i))
                sol = dps.solve_l2_sketch(dps.SketchProblem(sk))
                res = data.X @ sol.beta - data.y
                loss = float(res @ res)
                assert np.isfinite(loss)
                sigma = dps.gaussian_sigma(dps.bucket_sensitivity(B1, 1), pp)
                bound = dps.ridge_coeff_bound_l2(sigma, r, sol.beta_aug)
                hits += (loss - loss_star) <= bound
            results.append((eps, method, hits))
    ok = all(hits >= 50 for _, _, hits in results)
    detail = ", ".join(f"eps={e} {m}: {h}/100" for e, m, h in results)
    report("criterion 9: private l2 end-to-end", ok, detail)


def test_criterion_10_l1_solver_correctness():
    """l1 solver objective within 1% of the vertex oracle on 100 tiny instances."""
    rng = np.random.default_rng(1000)
    worst = 0.0
    for i in range(100):
        d = int(rng.integers(1, 3))
        rows = int(rng.integers(d + 3, 21))
        m = rng.standard_normal((rows, d + 1))
        weights = rng.uniform(0.5, 2.0, rows) if i % 2 else None
        prob = dps.SketchProblem(m, weights)
        oracle = lad_vertex_oracle(prob)
        sol = dps.solve_l1_weighted(prob)
        worst = max(worst, abs(sol.sketch_loss - oracle.sketch_loss) / oracle.sketch_loss)
    report("criterion 10: l1 solver vs oracle", worst <= 0.01, f"worst rel gap {worst:.2e}")


def test_criterion_11_l1_sketch_approximation():
    """Noise-stripped multi-level sketch (n=5000, d=3, b=2): median l1 ratio <= 10.

    Each release minus a same-seed release of an all-zero A cancels the noise.
    """
    rng = np.random.default_rng(1100)
    n, d = 5000, 3
    x = rng.standard_normal((n, d))
    y = x @ np.array([1.0, -2.0, 0.5]) + 0.5 * rng.laplace(size=n)
    a = np.column_stack([x, y])
    bound = dps.RowBound(10.0)
    a *= bound.B / dps.max_row_norm(a)
    data = dps.DataMatrix(a, bound)
    ratios = []
    for i in range(50):
        cfg = dps.L1SketchConfig(pp=PP, bound=bound, seed=1100 + i, N=200, b=2.0)
        ws = dps.private_l1_sketch(data, cfg)
        rows = ws.rows - dps.private_l1_sketch(np.zeros_like(a), cfg).rows
        sol = dps.solve_l1_weighted(dps.SketchProblem(rows, ws.weights))
        rep = dps.approximation_ratio(data, sol, "l1")
        assert rep.kind == "ratio"
        ratios.append(rep.value)
    med = float(np.median(ratios))
    report("criterion 11: l1 sketch approximation", med <= 10.0, f"median ratio {med:.4f}")


def test_criterion_12_sensitivity_audit():
    """Neighboring datasets under a fixed plan: ||SA - SA'||_2 <= 2B + 1e-9."""
    rng = np.random.default_rng(1200)
    n, b = 80, 1.0
    worst = 0.0
    for i in range(100):
        a = rng.standard_normal((n, 4))
        a /= np.maximum(np.linalg.norm(a, axis=1, keepdims=True), b)
        a_prime = a.copy()
        k = int(rng.integers(n))
        replacement = rng.standard_normal(4)
        a_prime[k] = replacement / max(np.linalg.norm(replacement), b)
        plan = draw_countsketch_plan(n, 8, seed=1200 + i)
        diff = countsketch_apply(plan, a) - countsketch_apply(plan, a_prime)
        worst = max(worst, float(np.linalg.norm(diff)))
    report("criterion 12: sensitivity audit", worst <= 2.0 * b + 1e-9, f"worst diff {worst:.6f}")


def test_criterion_13_privacy_hygiene(tmp_path):
    """Release bytes contain neither the seed nor any planted raw row value."""
    sentinel_seed = 123456789123
    planted = np.array([0.123456789, -0.098765432, 0.055555555, 0.042424242])
    rng = np.random.default_rng(13)
    a = np.vstack([planted, rng.standard_normal((50, 4)) * 0.2])
    a = a / max(1.0, dps.max_row_norm(a))
    data = dps.DataMatrix(a, B1)

    releases = {}
    sk, meta = dps.private_jl_sketch(data, dps.JlConfig(8, PP, B1, seed=sentinel_seed))
    releases["jl"] = dps.SketchFile("jl", sk, PP.epsilon, PP.delta, B1.B, {"branch": meta.branch})
    sk, plan = dps.private_countsketch_l2(data, 8, PP, B1, seed=sentinel_seed)
    releases["countsketch-l2"] = dps.SketchFile(
        "countsketch-l2", sk, PP.epsilon, PP.delta, B1.B, {"sigma": plan.sigma}
    )
    sk = dps.illustration_sketch_private(data, 8, PP, B1, seed=sentinel_seed)
    releases["l1-illustration"] = dps.SketchFile(
        "l1-illustration", sk, PP.epsilon, PP.delta, B1.B, {}
    )
    ws = dps.private_l1_sketch(data, dps.L1SketchConfig(pp=PP, bound=B1, seed=sentinel_seed, N=6))
    releases["l1-multilevel"] = dps.SketchFile(
        "l1-multilevel", ws.rows, PP.epsilon, PP.delta, B1.B, {"h_m": ws.h_m}, weights=ws.weights
    )

    clean = set(releases) == set(METHODS)  # every method in the table is audited
    for name, sf in releases.items():
        path = tmp_path / f"{name}.dps"
        dps.write_sketch(path, sf)
        blob = path.read_bytes()
        leaked = (
            struct.pack("<q", sentinel_seed) in blob
            or str(sentinel_seed).encode() in blob
            or any(struct.pack("<d", v) in blob for v in a[0])
        )
        clean = clean and not leaked
    report("criterion 13: privacy hygiene", clean, f"audited {len(releases)} of {len(METHODS)} release methods")
