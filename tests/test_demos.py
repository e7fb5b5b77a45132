from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# The recorded stdout of each demo, demos/<name>.py -> tests/data/demos/<name>.out
EXPECTED = ROOT / "tests" / "data" / "demos"


def _python(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
               PYTHONIOENCODING="utf-8")
    return subprocess.run([sys.executable, *args], capture_output=True, timeout=120, env=env)


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script):
    proc = _python([str(script)])
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (EXPECTED / f"{script.stem}.out").read_bytes()


def test_readme_quickstart_runs():
    [block] = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)
    proc = _python(["-c", block])
    assert proc.returncode == 0, proc.stderr.decode()
