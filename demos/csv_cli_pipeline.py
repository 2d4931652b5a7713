"""The file-based workflow: CSV in, portable sketch release out, solve anywhere.

Drives the command-line interface programmatically (``dpsketch.cli.main``
is the same entry point the ``dpsketch`` console script uses) and then pokes
at the release file to show what is, and deliberately is not, inside it.

Run: python demos/csv_cli_pipeline.py
"""

import json
import struct
import tempfile
from pathlib import Path

import numpy as np

from dpsketch.cli import main
from dpsketch.sketchfile import read_sketch

with tempfile.TemporaryDirectory(prefix="dpsketch-demo-") as tmp:
    workdir = Path(tmp)
    csv_path = workdir / "wages.csv"
    release_path = workdir / "wages.dps"
    solution_path = workdir / "solution.json"

    print("=== write a toy CSV (header + named response column) ===")
    rng = np.random.default_rng(8)
    x = rng.standard_normal((400, 2)) * 0.3
    y = x @ np.array([2.0, -1.0]) + 0.05 * rng.standard_normal(400)
    rows = np.column_stack([x, y])
    rows /= max(1.0, np.linalg.norm(rows, axis=1).max())
    lines = ["tenure,education,wage"]
    lines += [",".join(f"{v:.9f}" for v in row) for row in rows]
    csv_path.write_text("\n".join(lines) + "\n")
    print(f"{csv_path}: {len(lines) - 1} rows\n")

    print("=== dpsketch sketch ===")
    seed = 20240915
    code = main([
        "sketch", "--method", "cs2", "--epsilon", "1.0", "--delta", "0.05",
        "--bound", "1.0", "--rows", "32", "--seed", str(seed),
        "--in", str(csv_path), "--out", str(release_path),
        "--header", "--response", "wage",
    ])
    print(f"(exit {code})\n")

    print("=== dpsketch solve ===")
    code = main(["solve", "--norm", "l2", "--in", str(release_path), "--json", str(solution_path)])
    print(f"(exit {code})")
    print("solution json:", json.loads(solution_path.read_text())["beta"], "\n")

    print("=== what the release file holds ===")
    release = read_sketch(release_path)
    print(f"method {release.method}, r x (d+1) = {release.r} x {release.d + 1}")
    print(f"privacy metadata: epsilon={release.epsilon}, delta={release.delta}, B={release.B}")
    print(f"public calibration metadata: {release.meta}")

    blob = release_path.read_bytes()
    print(f"\nrelease is {len(blob)} bytes; auditing for secrets:")
    print("  seed as int64 bytes :", struct.pack('<q', seed) in blob)
    print("  seed as ascii       :", str(seed).encode() in blob)
    print("  any raw data row    :", any(struct.pack('<d', v) in blob for v in rows[0]))
    print("(all three must be False; the seed and the plan die with the process)\n")

print("=== dpsketch verify ===")
code = main(["verify", "--suite", "lemma1", "--trials", "2000", "--seed", "0"])
print(f"(exit {code})")
