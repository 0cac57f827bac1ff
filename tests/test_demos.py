import os
import subprocess
import sys
from pathlib import Path

import pytest

import wavelock as wl

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path: Path, cwd: Path) -> subprocess.CompletedProcess:
    # A fresh interpreter in a scratch directory, since demos 02 and 03
    # write CSV files; it imports the same wavelock as the tests and keeps
    # their warning policy, so a RuntimeWarning fails the demo.
    env = dict(os.environ)
    package_root = str(Path(wl.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(path)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path):
    proc = run_demo(path, tmp_path)
    assert proc.returncode == 0, proc.stderr
    if path.stem == "03_discrete_oracle":
        assert "certified: True" in proc.stdout


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    script = tmp_path / "quick_start.py"
    script.write_text(code)
    proc = run_demo(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "Dual 0.1416304583664178"
