"""The modules a cold start of each command loads, as one table, and the check of it.

A cold start is one fresh ``python -m cmkit.cli`` process.  Each row of
``ROWS`` gives a name, the command's arguments, its input and the exact set
of modules the command may load: the ``cmkit`` modules, plus any of
``dataclasses``, ``numpy`` and ``sympy``.  The set is read from
``sys.modules`` as the command exits, which also holds a module loaded
through ``cmkit.__getattr__`` (``importlib.import_module``), one that
``-X importtime`` does not log.  The CLI module runs as ``__main__``, as
under ``-m``, so it is not one of them.  An input is a document, the ``id``
of a line of ``data/golden_reports.jsonl`` whose input it takes, or None;
a document among the arguments is written to a file whose path takes its
place.  A row also fails when its command writes to standard error or
exits with a code other than 0, or than the golden line's for a golden
input.

None of these commands loads ``dataclasses``; only ``normalize``, which
returns a CM quadruple, loads both ``koszul`` and ``adhm``; no sheaf command
loads ``adhm``; no row loads ``numpy`` or ``sympy``; and ``classify`` loads
``factor`` only when X has an irreducible diagonal block larger than 1 x 1,
so a triangular X (a Jordan block, a scalar) does not.

``tests/test_cli.py`` checks every row against the source tree.  Run as a
script, this checks every row in a fresh process of the interpreter that
runs it, in a temporary directory, so it imports the installed package
rather than the source tree, unless ``PYTHONPATH`` names another; relative
``PYTHONPATH`` entries are taken from the directory the script is run from.
It first checks that a fresh process can import ``cmkit`` there, as
``replay_goldens.py`` does, then prints one line per failed row and exits 1
if any failed:

    python tests/cold_modules.py
    PYTHONPATH=src python tests/cold_modules.py

Only the standard library is used, so it runs in an environment that holds
the package's runtime dependencies and nothing else.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from replay_goldens import child_env, cmkit_or_exit

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_reports.jsonl"

_BASE = {"cmkit", "cmkit.linalg", "cmkit.serialize"}
_CECH = _BASE | {"cmkit.weyl"}
_ADHM = _BASE | {"cmkit.adhm"}
_KOSZUL = _BASE | {"cmkit.koszul"}
_MODULI = _KOSZUL | {"cmkit.moduli"}
_FACTOR = _MODULI | {"cmkit.factor"}

FLAGSHIP = {"n": 2, "r": 1, "field": "rational", "X": [["0", "0"], ["0", "1"]], "Y": [["0", "-1"], ["1", "0"]],
            "i": [["1"], ["1"]], "j": [["1", "1"]]}
# commuting stable data with j = 0: the two points (0, 0) and (1, 0)
COMMUTING_PAIR = {"n": 2, "r": 1, "field": "rational", "X": [["0", "0"], ["0", "1"]], "Y": [["0", "0"], ["0", "0"]],
                  "i": [["1"], ["1"]], "j": [["0", "0"]]}
SMALL_TRIPLE = {"n": 1, "r": 1, "field": "rational", "X": [["0"]], "i": [["1"]], "Y": [["3"]],
                "j": {"coeffs": [[["1"]], [["3"]]]}}
SMALL_SHEAF = {"n": 2, "r": 1, "field": "rational", "X": [["0", "1"], ["0", "0"]], "i": [["1"], ["0"]]}
# the companion matrix of x^3 - 2, irreducible over Q, so every step of the factorizer runs
CUBIC_SHEAF = {"n": 3, "r": 1, "field": "rational", "X": [["0", "0", "2"], ["1", "0", "0"], ["0", "1", "0"]],
               "i": [["1"], ["0"], ["0"]]}
# X = 2 I with r = 2: the End rows of a scalar sheaf
SCALAR_R2_SHEAF = {"n": 2, "r": 2, "field": "rational", "X": [["2", "0"], ["0", "2"]], "i": [["1", "1"], ["0", "1"]]}
# dense X with denominators in X and i: the fiber rows add_sandwich writes, as it writes the End rows
DENSE_R2_SHEAF = {"n": 4, "r": 2, "field": "rational",
                  "X": [["31/8", "27/40", "-3/16", "63/80"], ["-11/4", "311/180", "-181/72", "-397/120"],
                        ["7/2", "149/90", "-19/36", "17/60"], ["-27/4", "-47/20", "7/8", "-43/40"]],
                  "i": [["1/2", "1"], ["0", "-1/3"], ["1", "0"], ["2/5", "1"]]}
DIAGONAL_PAIR = {"n": 2, "r": 1, "field": "rational", "X": [["1", "0"], ["0", "2"]], "Y": [["3", "0"], ["0", "5"]],
                 "i": [["1"], ["1"]], "j": [["0", "0"]]}
DENSE_POINT = {"n": 4, "r": 1, "field": "rational",
               "X": [["-22/3", "-8/9", "2", "-2/9"], ["3", "-1", "-2", "-1"], ["-37/11", "59/66", "-19/22", "-113/33"],
                     ["148/11", "259/66", "-133/22", "-142/33"]],
               "Y": [["-50651/10890", "96751/261360", "107293/87120", "-412949/261360"],
                     ["-1979963/65340", "3531707/784080", "122017/261360", "-6490681/784080"],
                     ["-423421/21780", "816757/261360", "44063/87120", "-1437287/261360"],
                     ["-67889/5940", "16193/7128", "-2825/2376", "-101891/35640"]],
               "i": [["5/3"], ["-53/9"], ["-10/3"], ["-67/9"]], "j": [["629/66", "43/198", "-131/33", "317/99"]]}

# (name, arguments, input, modules)
ROWS = [
    ("verify", ["verify"], FLAGSHIP, _ADHM),
    ("moment", ["moment"], FLAGSHIP, _ADHM),
    ("invariants", ["invariants"], FLAGSHIP, _ADHM),
    ("invariants-dense-len4", ["invariants", "--max-len", "4"], DENSE_POINT, _ADHM),
    ("hilbert-ideal", ["hilbert-ideal"], COMMUTING_PAIR, _ADHM),
    ("hilbert-ideal-diagonal", ["hilbert-ideal"], DIAGONAL_PAIR, _ADHM),
    ("sample", ["sample", "--n", "3", "--seed", "1"], None, _ADHM),
    ("normalize", ["normalize"], SMALL_TRIPLE, _KOSZUL | {"cmkit.adhm"}),
    ("homotopy", ["homotopy", "--h", {"coeffs": [[["3"]]]}], SMALL_TRIPLE, _KOSZUL),
    ("fiber-solve", ["fiber-solve"], SMALL_SHEAF, _KOSZUL),
    ("fiber-solve-dense-r2", ["fiber-solve"], DENSE_R2_SHEAF, _KOSZUL),
    ("fiber-solve-complex-dense-r2", ["fiber-solve"], "fiber-solve-complex-dense-r2", _KOSZUL),
    ("classify", ["classify"], SMALL_SHEAF, _MODULI),
    ("classify-cubic", ["classify"], CUBIC_SHEAF, _FACTOR),
    ("classify-scalar-r2", ["classify"], SCALAR_R2_SHEAF, _MODULI),
    ("classify-dense-r2", ["classify"], "classify-rational-dense-n4-r2-nonsurjective", _FACTOR),
    ("classify-block-triangular-r2", ["classify"], "classify-rational-block-triangular-r2-companion-twice", _FACTOR),
    ("cech", ["cech", "--twist", "2", "--cutoff", "6"], None, _CECH),
]

# Run cmkit.cli as ``python -m cmkit.cli`` does, then write the modules it loaded to the file named first.
_CHILD = """\
import runpy, sys
out, sys.argv = sys.argv[1], ["cmkit", *sys.argv[2:]]
try:
    runpy.run_module("cmkit.cli", run_name="__main__")
finally:
    others = {"dataclasses", "numpy", "sympy"}
    with open(out, "w", encoding="utf-8") as f:
        print(*sorted(m for m in sys.modules if m.partition(".")[0] == "cmkit" or m in others), file=f)
"""


def check(row, workdir: Path, env: dict) -> str | None:
    """How one row fails in a fresh process run in ``workdir`` with ``env``, or None when it passes."""
    name, argv, source, modules = row
    if isinstance(source, str):
        golden = (json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines())
        doc, exit_code = next((case["input"], case["exit"]) for case in golden if case.get("id") == source)
    else:
        doc, exit_code = source and json.dumps(source), 0
    args = []
    for k, a in enumerate(argv):
        if isinstance(a, dict):
            path = workdir / f"{name}-{k}.json"
            path.write_text(json.dumps(a), encoding="utf-8")
            a = str(path)
        args.append(a)
    listing = workdir / f"{name}-modules.txt"
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(listing), *args], input=(doc or "").encode(),
                          cwd=workdir, env=env, capture_output=True, timeout=120)
    if proc.returncode != exit_code or proc.stderr:
        return f"{name}: exit {proc.returncode}, expected {exit_code}; stderr: {proc.stderr.decode(errors='replace')}"
    loaded = set(listing.read_text(encoding="utf-8").split())
    if loaded != modules:
        return f"{name}: loaded {sorted(loaded - modules)} beyond its modules and not {sorted(modules - loaded)}"
    return None


def main() -> int:
    env = child_env()
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        cmkit_or_exit(Path(tmp), env, "checking cold starts of")
        for row in ROWS:
            problem = check(row, Path(tmp), env)
            if problem:
                failed += 1
                print(problem)
    print(f"{len(ROWS) - failed} of {len(ROWS)} cold starts loaded exactly their modules")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
