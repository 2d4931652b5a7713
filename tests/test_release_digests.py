"""Release bytes pinned across versions.

Each digest is a sha256 over every release of one method at one input size
(the sketch, and the coverage, weights and level counts that go with it),
or over one CLI ``.dps`` file. The values were recorded before the three
hashed releases moved onto one bucket-sum kernel, and every version since
must reproduce them. A digest that moves is a change to the random stream:
record it in CHANGES.md and re-pin it here in the same change.

The ``jl`` file goes through LAPACK (SVD) and BLAS; the hashed releases use
only numpy's generator and ``np.bincount``.
"""

import hashlib

import numpy as np
import pytest

from dpsketch.cli import main
from dpsketch.countsketch import private_countsketch_l2
from dpsketch.l1 import L1SketchConfig, illustration_sketch_private, private_l1_sketch
from dpsketch.mechanisms import PrivacyParams, RowBound

PP = PrivacyParams(1.0, 0.05)
B1 = RowBound(1.0)
SIZES = (1, 2, 3, 50, 2000)


def _data(n: int) -> np.ndarray:
    a = np.random.default_rng(1000 + n).standard_normal((n, 4))
    return a / max(1.0, np.linalg.norm(a, axis=1).max())


def _feed(h, *arrays, dtype="<f8"):
    for x in arrays:
        h.update(np.ascontiguousarray(x, dtype=dtype).tobytes())


def cs2_digest(n: int) -> str:
    a, h = _data(n), hashlib.sha256()
    for r in (1, 8, 64):
        for seed in range(3):
            sketch, plan = private_countsketch_l2(a, r, PP, B1, seed)
            _feed(h, sketch, [plan.sigma])
            _feed(h, plan.coverage, [plan.p, plan.patched], dtype="<i8")
    return h.hexdigest()


def illus_digest(n: int) -> str:
    a, h = _data(n), hashlib.sha256()
    for r in (1, 8, 64):
        for seed in range(3):
            _feed(h, illustration_sketch_private(a, r, PP, B1, seed))
    return h.hexdigest()


def l1_digest(n: int) -> str:
    a, h = _data(n), hashlib.sha256()
    for s in (1, 2, 4):
        for assignment in ("bernoulli", "categorical"):
            for seed, n_u in ((0, None), (1, 3)):
                cfg = L1SketchConfig(
                    pp=PP, bound=B1, seed=seed, N=8, b=2.0, s=s, N_u=n_u, level_assignment=assignment,
                )
                ws = private_l1_sketch(a, cfg)
                _feed(h, ws.rows, ws.weights, [ws.sigma])
                _feed(
                    h, ws.level_of, ws.data_level_counts, ws.noise_coverage,
                    [ws.h_m, ws.noise_rows, ws.patched, ws.max_data_memberships], dtype="<i8",
                )
    return h.hexdigest()


LIBRARY_DIGESTS = {
    ("countsketch-l2", 1): "969b32d299112f66336ca7a59282e993997cdbd567af8ac0040d689fcd8f2120",
    ("countsketch-l2", 2): "7bc0e5164a38b9e864e585c990225a88588e61ccbfcd32b5a30b4b011e18f969",
    ("countsketch-l2", 3): "64641c98dd882831c2f555a4e49bc1639857348cca9a520f537ef58bb0983254",
    ("countsketch-l2", 50): "f1732c0d608230cf830fe2b98dd4928129eef82f9f128c4ef62ce01fbdc9508a",
    ("countsketch-l2", 2000): "96fd3b3500672dc0fc0ad0b60d0fc3b4d4ec72e74caa359b6315c9fef0c596b7",
    ("l1-illustration", 1): "603ba8328e62176abc121669f7deace4ff1ab18b2eef1d8d71078f2a833a94ff",
    ("l1-illustration", 2): "b23bc9b8b097859789af5eb5f49651eee39a21c7aba27e218788f783d925338b",
    ("l1-illustration", 3): "bc07c6ee282dab7d41f48a815f2e2dc6912fa069e7454cfb1ae146b315eb851a",
    ("l1-illustration", 50): "d5b0677d8f6a2ed0d6eae51f98d3b30f26685a0a16abc0821e50b022cd88c746",
    ("l1-illustration", 2000): "1c3c72f62d1dbc020899822a7a1fcc2e1b1ef720052f1658e1f5b768fb1352f9",
    ("l1-multilevel", 1): "7b6fa4a8d26da4dd66b03e31d5b889937b75f596669ba98ce1e62f1cc5965a36",
    ("l1-multilevel", 2): "fe269e23ce362d38b63d337c1a7125a47021719ba808374cf54f8400b0730bdd",
    ("l1-multilevel", 3): "eb97614b6af439454ff13ec2ea34350d1eb29b81d0ec7b731583971e3d4fa022",
    ("l1-multilevel", 50): "c7d1342218452a2ec2c7f8d4f97cbcb661d55bee6accf11d10cd5b3e2281974d",
    ("l1-multilevel", 2000): "1ace9a23abccb93072ed8418bcd094d94d2bc78e4ef9066f90b5038fbef874e5",
}

CLI_DIGESTS = {
    "jl": "afb2a790f1c883b4267fbb8d00cbb000dbbdcde40ad1a43a8aee5537d8121bca",
    "cs2": "7675ab87b51128b90201d4b17f71807773a8362169b695d04c5a54632723c4a0",
    "l1": "3511ebc0b7aea42b997b9baaffa3b1c769b5ae9c44ccd49b7315a8c1685127bc",
    "l1-illus": "8ffcbdce1dc1ba837788e068d61e0de13990a64626786c89aa6b36ab860e54f4",
}


def cli_digest(tmp_path, flag: str) -> str:
    path = tmp_path / "data.csv"
    a = _data(60)
    path.write_text("\n".join(",".join(f"{v:.9f}" for v in row) for row in a) + "\n")
    out = tmp_path / f"{flag}.dps"
    extra = ["--rows", "60", "--s", "2"] if flag == "l1" else ["--rows", "16"]
    code = main([
        "sketch", "--method", flag, "--epsilon", "1.0", "--delta", "0.05", "--bound", "1.0",
        "--seed", "7", "--in", str(path), "--out", str(out), *extra,
    ])
    assert code == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


# ``cs2`` on the CLI input with every third row pushed to four times its
# norm, so ``--clip scale`` rescales rows before the release.
CLIP_SCALE_DIGEST = "ed7d36defc41d2060317612ccc28078ff4b2d7d8ce462587af8124ff100cf7ad"


def test_cli_clip_scale_bytes(tmp_path, capsys):
    path = tmp_path / "data.csv"
    a = _data(60)
    a[::3] *= 4.0
    path.write_text("\n".join(",".join(f"{v:.9f}" for v in row) for row in a) + "\n")
    out = tmp_path / "clip.dps"
    code = main([
        "sketch", "--method", "cs2", "--epsilon", "1.0", "--delta", "0.05", "--bound", "1.0",
        "--seed", "7", "--rows", "16", "--clip", "scale", "--in", str(path), "--out", str(out),
    ])
    assert code == 0
    assert "warning: rescaled 20 row(s) to norm B = 1" in capsys.readouterr().out
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CLIP_SCALE_DIGEST


DIGEST_OF = {"countsketch-l2": cs2_digest, "l1-illustration": illus_digest, "l1-multilevel": l1_digest}


@pytest.mark.parametrize("method,n", sorted(LIBRARY_DIGESTS))
def test_library_release_bytes(method, n):
    assert DIGEST_OF[method](n) == LIBRARY_DIGESTS[method, n]


@pytest.mark.parametrize("flag", sorted(CLI_DIGESTS))
def test_cli_release_bytes(tmp_path, flag):
    assert cli_digest(tmp_path, flag) == CLI_DIGESTS[flag]
