"""Release bytes pinned across versions.

Each digest is a sha256 over every release of one method at one input size
(the sketch, and the coverage, weights and level counts that go with it),
or over one CLI ``.dps`` file. The values were recorded before the three
hashed releases moved onto one bucket-sum kernel, and every version since
must reproduce them. A digest that moves is a change to the random stream:
record it in CHANGES.md and re-pin it here in the same change.

The ``l1-multilevel`` values were re-recorded once when the release kept a
single level law and its hasher stopped looping over a second one. They were
computed with the library as it stood before that law was removed, so the
releases they hash did not move. They were re-recorded again, with the CLI
``l1`` file, when the release moved its calibration from ``2B h_m`` to its
footprint ``2B sqrt(s + h_m)``. Only sigma moved: the bucket draws and the
standard normal draws are the same, so the noise rows scale by the ratio of
the two sigmas.

The ``l1`` and ``l1-illus`` file digests were re-recorded when every hashed
header came to carry the noise-row and patch counts of its release. The
matrix and weights in those files did not move.

The ``l1-multilevel`` values, library and certified, and the CLI ``l1``
file were re-recorded once more when each sampled level came to be drawn at
the size of its membership: a ``Binomial(m, b^-h)`` count, then a uniform
subset of the ``m`` rows of that size, in place of one uniform draw per row
and level. That changed the random stream, not the law: every row still
enters level ``h`` independently with probability ``b^-h``
(``tests/test_l1.py::TestLevelLaw``).

The ``jl`` file goes through LAPACK (Householder QR of ``A``, then the SVD of
its R factor) and BLAS; the hashed releases use only numpy's generator and
``np.bincount``. At the 60 rows pinned here the QR is one unblocked LAPACK
call, the same factorization LAPACK's SVD of a tall matrix starts with, so
moving the spectrum onto the R factor left this digest unchanged.

The ``jl`` file and certified digests were re-recorded when the release
came to be drawn as ``sqrt(1 + c^2) G R`` from the R factor ``R`` of ``A``
in place of ``sqrt(1 + c^2) G V diag(s) V^T``. That changed the stream,
not the law: ``R^T R = A^T A``, so the rows are ``N(0, (1 + c^2) A^T A)``
either way, and the Laplace draw, branch, ``w^2`` and ``c`` did not move
(``tests/test_jl.py::TestGramRootRelease``). The SVD of ``R`` now serves
only the noisy test's ``sigma_min``.

The ``CERTIFIED_DIGESTS`` hash releases from a ``DataMatrix`` of 5000 rows,
so they cover the matrix as certification stores it, and a jl release whose
R factor comes from the blocked tall-skinny QR (one of its two sketch sizes
passes the noisy rank test, the other augments). They also hash the matrices
``synthetic_regression`` builds at that size, which are scaled by their
largest row norm and so follow every bit of ``row_norms``.
"""

import hashlib

import numpy as np
import pytest

from dpsketch.cli import main
from dpsketch.countsketch import private_countsketch_l2
from dpsketch.dataset import DataMatrix, synthetic_regression
from dpsketch.jl import JlConfig, private_jl_sketch
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


def cs2_digest(a) -> str:
    h = hashlib.sha256()
    for r in (1, 8, 64):
        for seed in range(3):
            sketch, plan = private_countsketch_l2(a, r, PP, B1, seed)
            _feed(h, sketch, [plan.sigma])
            _feed(h, plan.coverage, [plan.p, plan.patched], dtype="<i8")
    return h.hexdigest()


def illus_digest(a) -> str:
    h = hashlib.sha256()
    for r in (1, 8, 64):
        for seed in range(3):
            _feed(h, illustration_sketch_private(a, r, PP, B1, seed))
    return h.hexdigest()


def l1_digest(a) -> str:
    h = hashlib.sha256()
    for s in (1, 2, 4):
        for seed, n_u in ((0, None), (1, 3)):
            ws = private_l1_sketch(a, L1SketchConfig(pp=PP, bound=B1, seed=seed, N=8, b=2.0, s=s, N_u=n_u))
            _feed(h, ws.rows, ws.weights, [ws.sigma])
            _feed(
                h, ws.level_of, ws.data_level_counts, ws.noise_coverage,
                [ws.h_m, ws.noise_rows, ws.patched, ws.max_data_memberships], dtype="<i8",
            )
    return h.hexdigest()


def jl_digest(a) -> str:
    h = hashlib.sha256()
    for r in (16, 64):
        for seed in range(3):
            sketch, meta = private_jl_sketch(a, JlConfig(r=r, pp=PP, bound=B1, seed=seed))
            _feed(h, sketch, [meta.w_squared, meta.c])
            h.update(meta.branch.encode())
    return h.hexdigest()


def synthetic_digest(n: int) -> str:
    h = hashlib.sha256()
    for seed in range(20):
        _feed(h, synthetic_regression(n, 1 + seed % 10, seed=seed).A)
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
    ("l1-multilevel", 1): "eade7f3ed725621ce8cbe6fdb5039763754806adeaf20629f265cd065d5cab70",
    ("l1-multilevel", 2): "0fd6bca8df86af3f982671860ed8c3013a8ca827c6bd3d5c55298facf7e3a9a7",
    ("l1-multilevel", 3): "d293764c7f3afa56a8b440b86d67845afbd3c3982a66c7ccf4d5468ba5e35423",
    ("l1-multilevel", 50): "ca378aa50176f9c51995842ffc1da55c8ebfbc3c2439e78c6cf8f2974cd4b1a6",
    ("l1-multilevel", 2000): "128f4a78b611f9c0fbb5263e169ae9853674af2950480dabb19ec9880ad6f94c",
}

CLI_DIGESTS = {
    "jl": "ce91b48181b246df0d836b74750b38e2a62cf91af8db03546b3cbeef326d6094",
    "cs2": "7675ab87b51128b90201d4b17f71807773a8362169b695d04c5a54632723c4a0",
    "l1": "2e124382e5f86135e6d444512349e7b35221c926d2a3197cccc06c71797fde7b",
    "l1-illus": "f93f56bc695c92268672a8818b1312b0b9f02672011aa2ad83ee7970708ba5ca",
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


# Releases from a certified ``DataMatrix`` of ``CERTIFIED_ROWS`` rows, past
# ``linalg._QR_BLOCKED_MIN_ROWS``, so the jl spectrum comes from the blocked
# tall-skinny QR; and the matrices ``synthetic_regression`` builds at that size.
CERTIFIED_ROWS = 5000
CERTIFIED_DIGESTS = {
    "countsketch-l2": "93148e9cf70fe2148204224dca056ea8ded45a5730fd6cf31285feb68beb2b0a",
    "jl": "238a42413cf02a53a6a5528fe2a5df221b42ef253621f02372303bc2f1475ba2",
    "l1-multilevel": "39a964a1e097e68c7bb66e279322c24a71bc0e04ac9dafce2de3fcd38d877e59",
    "synthetic": "c59323a3d095e82e08de39b1436dff9eb8412b6e8d9b40deb97fd4d1a539eecd",
}

DIGEST_OF = {
    "countsketch-l2": cs2_digest, "l1-illustration": illus_digest, "l1-multilevel": l1_digest, "jl": jl_digest,
}


@pytest.mark.parametrize("method,n", sorted(LIBRARY_DIGESTS))
def test_library_release_bytes(method, n):
    assert DIGEST_OF[method](_data(n)) == LIBRARY_DIGESTS[method, n]


@pytest.mark.parametrize("method", sorted(CERTIFIED_DIGESTS))
def test_certified_release_bytes(method):
    if method == "synthetic":
        digest = synthetic_digest(CERTIFIED_ROWS)
    else:
        digest = DIGEST_OF[method](DataMatrix(_data(CERTIFIED_ROWS), B1))
    assert digest == CERTIFIED_DIGESTS[method]


@pytest.mark.parametrize("flag", sorted(CLI_DIGESTS))
def test_cli_release_bytes(tmp_path, flag):
    assert cli_digest(tmp_path, flag) == CLI_DIGESTS[flag]
