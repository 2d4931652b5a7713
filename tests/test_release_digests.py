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
    ("countsketch-l2", 1): "0d7ecfe30c5f103a30eea43e6de0b058da7e305e191cefa61aac6969e12d68d0",
    ("countsketch-l2", 2): "b8972d3de16b6c3d0a17088bd0b9cb5a114de779bbf07aad37f58e651f657c31",
    ("countsketch-l2", 3): "1ac6e9a69be364d29f21df4d8a0ebd3911d9047a03007b0991b7d1d5d27fdb5e",
    ("countsketch-l2", 50): "774b2b531a338596294f9eb455cce9837d96fcee673f3a3f1bd511c95efb9077",
    ("countsketch-l2", 2000): "d9027d5e4485091de3dfe3e61f9ed10c7ec012e34d7c5538ff6b92df17d40406",
    ("countsketch-l2", 70000): "cae96fe14f4b0ad53bc389b366922b4f2afe307aff789915c3a2d98be7be5c4f",
    ("l1-illustration", 1): "a0de5b35c532b24c793ea93b26f09ef90bd1228a809ea7d6553c69bb761167c7",
    ("l1-illustration", 2): "7ad5c37e277ec7a06901ccd84c87100c7de9c3343a9aadeac257293755f5fd2e",
    ("l1-illustration", 3): "748ebcd5e99bd03dce0ee9f8246fe951c9b1d7006e85bde8fdb0750f7047894d",
    ("l1-illustration", 50): "587688b0e35a2c5b7b74b66e3acc409d133f7f3679b149734316a9ae100d6caf",
    ("l1-illustration", 2000): "fd7ca017f503eee3bb7db1fafd06398d824b4b0de726594c4bbf90070256e4a8",
    ("l1-illustration", 70000): "97d6a998282cfbdaecddee43d69b83af25eb29285f8264ff3a81ff4f76dc2f92",
    ("l1-multilevel", 1): "a1ae1914aeb08145743debe168f924a1fbf149f49bb089ad92dbabb666315065",
    ("l1-multilevel", 2): "4bd79f815a793fedc59ef13c1a4e55661dcf1969ec298aeac29f044dfa7d6f96",
    ("l1-multilevel", 3): "b8ba58991dbe71dcfd0660b023a7785031c6f892a9eac985e6ddb882cab9827c",
    ("l1-multilevel", 50): "d6b927d596b452c20e0230740ca295e1446a981f1c715895cc2c23c502019f4b",
    ("l1-multilevel", 2000): "f1584fda991adaec98129eb5bb21baab285c774aba510d3f15d22f982e0c1da2",
    ("l1-multilevel", 70000): "cbb5c55ba87d6aeb7380cdffcdfd9cb14e9901511ecb87eb19e3e80fbfbb6be1",
}

CLI_DIGESTS = {
    "jl": "ce91b48181b246df0d836b74750b38e2a62cf91af8db03546b3cbeef326d6094",
    "cs2": "98c1db97e8c5afed1015234e3586390e097b13b00ae532bf2e92a589cc632fd8",
    "l1": "1df10e7f980a26d9912aa6cd8fe7a002144de223fdd7524acf5708dbd5d04383",
    "l1-illus": "8870d44d4eb4f0274d9ff3120a904c2ecdb79b2117e4548d98ac761dc4d46230",
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
CLIP_SCALE_DIGEST = "13b7971171694be0a74a929c09a490e8cd6b6c3f5aafb1f34e02d473cd47160e"


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
    "countsketch-l2": "147ab31a886fb9d38231d87dba87855d8c66c833b8031efe10a9898014a956cf",
    "jl": "238a42413cf02a53a6a5528fe2a5df221b42ef253621f02372303bc2f1475ba2",
    "l1-multilevel": "20b67dc5dd9904e29a66b5450d6a2fbd250a610a6c4b7e630d13e09f32bc800d",
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
