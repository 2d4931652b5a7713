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

The ``countsketch-l2``, ``l1-illustration`` and ``l1-multilevel`` values
(library, certified and the CLI ``cs2``, ``l1-illus`` and ``l1`` files, and
``CLIP_SCALE_DIGEST``) were re-recorded when the hashed releases came to walk
``[A; eta]`` in row chunks into one ``r x (d+1)`` accumulator. That changed
the streams, not the laws. CountSketch buckets and signs now come from two
generators spawned from the assignment seed, in place of one plan drawn
buckets-then-signs over all ``n + p`` rows; each multi-level chunk draws its
own level sizes and unsorted subsets, so each row still enters level ``h``
independently with probability ``b^-h`` (``tests/test_l1.py::TestLevelLaw``);
the noise rows are the same standard normal draws, taken chunk by chunk; and
chunk sums are added into the accumulator, which moves float association.
The 70000-row library values were added then: at 4 columns their data rows
span two chunks, so the chunk size is pinned too. The CLI ``l1`` stdout
pinned in ``tests/test_cli.py`` moved with them.

The ``countsketch-l2`` and ``l1-illustration`` values (library, certified,
the CLI ``cs2`` and ``l1-illus`` files and ``CLIP_SCALE_DIGEST``) were
re-recorded when those releases came to draw ``S eta`` by its per-bucket
law: ``c ~ Multinomial(p, 1/r)``, then one N(0, max(c_b, 1) sigma^2 I) row
per bucket, from the noise seed, in place of ``p`` hashed noise rows and a
patch row per empty bucket. That changed the noise stream, not the law
(``tests/test_countsketch.py::TestNoiseLaw``); the data rows' buckets and
signs, ``p``, ``sigma`` and the pinned CLI stdout did not move, and neither
did any ``jl`` or ``l1-multilevel`` value.

The 70000-row ``jl`` value was added when the tall-skinny QR came to fold
each group of block Rs into one running R, ``R <- qr([R; group Rs])``, in
place of stacking every block's R for one final QR. At 4 columns a group is
16384 rows, so this input is four full groups, a partial group of 17 blocks
and a 112-row remainder: ``jl`` bits past one group follow the fold order.
Within one group the fold is the same sequence of LAPACK calls as the
single stack, so the 60-row CLI and 5000-row certified ``jl`` values did
not move.

When the multi-level release came to draw and sum its hashed noise in
blocks of ``countsketch._NOISE_BLOCK_CELLS`` cells (8192 rows at 4
columns), no value here moved: the noise stream is the same draw, and every
configuration pinned above has fewer noise rows than one block (at most
``p = 1292``, the 70000-row library value at ``r = 144``), so each noise
chunk is still summed in one ``bucket_sum`` call.

``L1_NOISE_BLOCKS_DIGEST`` pins ``l1_digest`` of the 2000-row input at
``N = 128``, with the shipped chunk and block constants: ``r = 1411`` to
``1536`` and ``p = 15877`` to ``17414``, one noise chunk that spans two or
three blocks. Each block's noise is summed into the accumulator on its own,
so the float association of the noise sums follows the block grid, and this
value pins it; the same stream summed whole hashes differently.

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
SIZES = (1, 2, 3, 50, 2000, 70000)


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


def l1_digest(a, N: int = 8) -> str:
    h = hashlib.sha256()
    for s in (1, 2, 4):
        for seed, n_u in ((0, None), (1, 3)):
            ws = private_l1_sketch(a, L1SketchConfig(pp=PP, bound=B1, seed=seed, N=N, b=2.0, s=s, N_u=n_u))
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
    ("countsketch-l2", 1): "01f49e22b074543820ef6cadbeda460c3a95cb3e6709c75682cf5c8bdb445563",
    ("countsketch-l2", 2): "991436248f07e47959a541bea315d85dc3580086916354c6a0eeff7e28423a77",
    ("countsketch-l2", 3): "32e9e7754360bba9a708c77e66d209c899381b639f54db319a23bd8c5264c134",
    ("countsketch-l2", 50): "23505c1716407d6f6c4349e69fb010600ca4a2cc2bdacdd6b8b9a0a2567916d9",
    ("countsketch-l2", 2000): "fdd7cafbedec4222e9bd37c8b5fe493e073351c3825c61a85d021d1c269a99ea",
    ("countsketch-l2", 70000): "c55ba95efed69e2f6e88f634cc47df7ebd9c64ca815bd7e606aa78ae50f349d6",
    ("jl", 70000): "d70aafbbae518d471a206e2d4c02e182093db4bd4f06b2da7fffcf8af3cecc2c",
    ("l1-illustration", 1): "ccf6818ffc467bfb0d00c226961a7f08ff5ac203234dbd446b35eb7a1332205a",
    ("l1-illustration", 2): "19649cca579499e8d2f0cfb8cf99d2062c1c87d1c5d631aeb5d8596593d16f0c",
    ("l1-illustration", 3): "3a33c15fa188af4403f24acf74daff8c3814b90b7126c68b19ca264cdc7654c0",
    ("l1-illustration", 50): "9e6517e13d035b8f77bb5888b434ff62d92975e1e248ad6707bda6d55e2fdf32",
    ("l1-illustration", 2000): "c23d144ee7d49c1798b9028b1e54cc217db1ddb880e1cceb759b2e7fc08958a5",
    ("l1-illustration", 70000): "472bcd3df08dcb852d4858a678b646346d3b48fc14b4dad9d336014daab6456b",
    ("l1-multilevel", 1): "a1ae1914aeb08145743debe168f924a1fbf149f49bb089ad92dbabb666315065",
    ("l1-multilevel", 2): "4bd79f815a793fedc59ef13c1a4e55661dcf1969ec298aeac29f044dfa7d6f96",
    ("l1-multilevel", 3): "b8ba58991dbe71dcfd0660b023a7785031c6f892a9eac985e6ddb882cab9827c",
    ("l1-multilevel", 50): "d6b927d596b452c20e0230740ca295e1446a981f1c715895cc2c23c502019f4b",
    ("l1-multilevel", 2000): "f1584fda991adaec98129eb5bb21baab285c774aba510d3f15d22f982e0c1da2",
    ("l1-multilevel", 70000): "cbb5c55ba87d6aeb7380cdffcdfd9cb14e9901511ecb87eb19e3e80fbfbb6be1",
}

CLI_DIGESTS = {
    "jl": "ce91b48181b246df0d836b74750b38e2a62cf91af8db03546b3cbeef326d6094",
    "cs2": "3c0ac6e4cc5cbb69ebdc43096fc2d2870a678f8599e5efa732b74ab22dd70c4d",
    "l1": "1df10e7f980a26d9912aa6cd8fe7a002144de223fdd7524acf5708dbd5d04383",
    "l1-illus": "cb82f782f6710629efecb240cbcecad2373956d05487da7076b1c6bc861c670e",
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
CLIP_SCALE_DIGEST = "0534ac223097d7277bc91406d8e1f477787e0e78064cc49fe8b6d189dc913dc3"


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
    "countsketch-l2": "7e537b758188d22b3a0a8e08495b9049de40f5d5630901e9ebb367e813ce3194",
    "jl": "238a42413cf02a53a6a5528fe2a5df221b42ef253621f02372303bc2f1475ba2",
    "l1-multilevel": "20b67dc5dd9904e29a66b5450d6a2fbd250a610a6c4b7e630d13e09f32bc800d",
    "synthetic": "c59323a3d095e82e08de39b1436dff9eb8412b6e8d9b40deb97fd4d1a539eecd",
}

# ``l1_digest(_data(2000), N=128)``: each noise chunk spans two or three blocks.
L1_NOISE_BLOCKS_DIGEST = "1df0c983c074312ee04064a2481175a89ad0a65610c874cb9b6edfbca422036c"

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


def test_l1_noise_blocks_bytes():
    assert l1_digest(_data(2000), N=128) == L1_NOISE_BLOCKS_DIGEST
