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

With ``--record ID -- ARGV...`` it runs one command instead, in the same
kind of child process, on the standard input it is given (none when that is
empty), and prints the golden line of it: ``ID``, the arguments, the input,
the text of the file named by ``--h`` (which goes to the end, where
``replay`` puts it), the exit code and the standard output.  New lines are
recorded this way at the commit whose reports they pin:

    PYTHONPATH=src python tests/replay_goldens.py --record ID -- classify < sheaf.json

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


def run(case: dict, workdir: Path, env: dict) -> subprocess.CompletedProcess:
    """A fresh ``python -m cmkit.cli`` process in ``workdir`` with ``env`` on the command of one golden line."""
    argv = list(case["argv"])
    if case["h"] is not None:
        path = workdir / "h.json"
        path.write_text(case["h"], encoding="utf-8")
        argv += ["--h", str(path)]
    return subprocess.run([sys.executable, "-m", "cmkit.cli", *argv], input=(case["input"] or "").encode(),
                          cwd=workdir, env=env, capture_output=True, timeout=120)


def replay(case: dict, workdir: Path, env: dict) -> list[str]:
    """The differences between one golden line and a fresh run of its command in ``env``."""
    proc = run(case, workdir, env)
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


def child_env() -> dict:
    """This process's environment, with each relative ``PYTHONPATH`` entry made absolute from the current directory:
    each command runs in a temporary directory."""
    env = dict(os.environ)
    if "PYTHONPATH" in env:
        env["PYTHONPATH"] = os.pathsep.join(p and os.path.abspath(p) for p in env["PYTHONPATH"].split(os.pathsep))
    return env


def cmkit_or_exit(workdir: Path, env: dict, doing: str) -> None:
    """Print ``doing`` and the ``cmkit.__file__`` a fresh process imports, or exit 2 with one line when it cannot."""
    location = cmkit_file(workdir, env)
    if location is None:
        print(f"{sys.executable} cannot import cmkit with PYTHONPATH={env.get('PYTHONPATH', '(unset)')}; "
              "install the package or set PYTHONPATH=src", file=sys.stderr)
        sys.exit(2)
    print(f"{doing} {location}")


def record(case_id: str, argv: list[str], stdin: bytes, workdir: Path, env: dict) -> tuple[str, bytes]:
    """The golden line of one run of ``argv`` on ``stdin``, and the run's standard error.

    ``--h FILE`` leaves the arguments and its text becomes the line's ``h``.
    """
    h = None
    if "--h" in argv:
        k = argv.index("--h")
        h = Path(argv[k + 1]).read_text(encoding="utf-8")
        argv = argv[:k] + argv[k + 2:]
    case = {"id": case_id, "argv": argv, "input": stdin.decode("utf-8") or None, "h": h}
    proc = run(case, workdir, env)
    return json.dumps({**case, "exit": proc.returncode, "stdout": proc.stdout.decode("utf-8")}), proc.stderr


def main() -> int:
    if sys.argv[1:2] == ["--record"]:
        if len(sys.argv) < 5 or sys.argv[3] != "--":
            print("usage: replay_goldens.py --record ID -- ARGV... < input", file=sys.stderr)
            return 2
        with tempfile.TemporaryDirectory() as tmp:
            line, stderr = record(sys.argv[2], sys.argv[4:], sys.stdin.buffer.read(), Path(tmp), child_env())
        if stderr:  # a command reports on standard output only: this is a failed import or a crash
            sys.stderr.write(stderr.decode(errors="replace"))
            return 1
        print(line)
        return 0
    cases = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]
    env = child_env()
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        cmkit_or_exit(Path(tmp), env, "replaying against")
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
