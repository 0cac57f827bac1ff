import os
import subprocess
import sys
from pathlib import Path

import pytest

import wavelock as wl

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def run_demo(path: Path, cwd: Path) -> subprocess.CompletedProcess:
    # A fresh interpreter in a scratch directory, since demos 02 and 03
    # write CSV files; it imports the same wavelock as the tests.
    env = dict(os.environ)
    package_root = str(Path(wl.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(path)], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path):
    proc = run_demo(path, tmp_path)
    assert proc.returncode == 0, proc.stderr
    if path.stem == "03_discrete_oracle":
        assert "certified: True" in proc.stdout
