"""Every demo script runs to completion against the package in ``src``, with
warnings raised as errors as in the rest of the suite."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    tmpdir = tmp_path / "tmp"  # demos that write files use tempfile
    tmpdir.mkdir()
    env["TMPDIR"] = str(tmpdir)
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert list(tmpdir.iterdir()) == [], "demo left temporary files behind"


def test_readme_quickstart_runs(capsys):
    # the quickstart uses root names only, so it fails here if README's API
    # drifts from the package root
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md quickstart", "exec"), {})
    assert capsys.readouterr().out.strip()
