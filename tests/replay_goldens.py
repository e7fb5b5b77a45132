"""Replay every line of data/golden_reports.jsonl through ``python -m cmkit.cli``.

Each line gives the arguments, the standard input (``null`` for none), the
text of the ``--h`` file (``null`` for none), the exit code and the exact
standard output.  The command runs in a fresh process of the interpreter that
runs this script, in a temporary directory, so it imports the installed
package rather than the source tree, unless ``PYTHONPATH`` names another;
relative ``PYTHONPATH`` entries are taken from the directory the script is
run from.  The script first checks that a fresh process can import ``cmkit``
there, and exits 2 with one line naming the interpreter and ``PYTHONPATH`` if
it cannot; otherwise it prints the ``cmkit.__file__`` it replays.  Any
difference in the exit code or in one byte of standard output fails the run:

    python tests/replay_goldens.py
    PYTHONPATH=src python tests/replay_goldens.py

Only the standard library is used, so it runs in an environment that holds
the package's runtime dependencies and nothing else.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_reports.jsonl"


def replay(case: dict, workdir: Path, env: dict) -> list[str]:
    """The differences between one golden line and a fresh run of its command in ``env``."""
    argv = list(case["argv"])
    if case["h"] is not None:
        path = workdir / "h.json"
        path.write_text(case["h"], encoding="utf-8")
        argv += ["--h", str(path)]
    proc = subprocess.run([sys.executable, "-m", "cmkit.cli", *argv], input=(case["input"] or "").encode(),
                          cwd=workdir, env=env, capture_output=True, timeout=120)
    problems = []
    if proc.returncode != case["exit"]:
        problems.append(f"exit {proc.returncode}, expected {case['exit']}; stderr: {proc.stderr.decode(errors='replace')}")
    if proc.stdout != case["stdout"].encode():
        problems.append(f"stdout differs:\n  got      {proc.stdout!r}\n  expected {case['stdout'].encode()!r}")
    return problems


def cmkit_file(workdir: Path, env: dict) -> str | None:
    """The ``cmkit.__file__`` a replayed command imports, or None when it cannot import ``cmkit``."""
    proc = subprocess.run([sys.executable, "-c", "import cmkit; print(cmkit.__file__)"], cwd=workdir, env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    cases = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]
    env = dict(os.environ)
    if "PYTHONPATH" in env:  # each command runs in a temporary directory, so make the entries absolute here
        env["PYTHONPATH"] = os.pathsep.join(p and os.path.abspath(p) for p in env["PYTHONPATH"].split(os.pathsep))
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        location = cmkit_file(Path(tmp), env)
        if location is None:
            print(f"{sys.executable} cannot import cmkit with PYTHONPATH={env.get('PYTHONPATH', '(unset)')}; "
                  "install the package or set PYTHONPATH=src", file=sys.stderr)
            return 2
        print(f"replaying against {location}")
        for number, case in enumerate(cases, 1):
            problems = replay(case, Path(tmp), env)
            if problems:
                failed += 1
                name = case.get("id", " ".join(case["argv"]))
                print(f"line {number} ({name}):", *problems, sep="\n  ")
    print(f"{len(cases) - failed} of {len(cases)} golden reports replayed byte for byte")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
