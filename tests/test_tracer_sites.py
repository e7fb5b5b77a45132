"""Every cmkit name the benchmark tracer wraps exists.

``bench/spans.py`` replaces module attributes and ``Matrix`` methods by
name; a renamed or deleted one would only fail once a traced benchmark run
starts.  This checks the names without running any workload.  A module keeps
an import it does not use only for the tracer to wrap, and marks it with
``TRACER_MARK``; each name such an import binds must be a site of the tracer,
so the imports go when the sites do.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import cmkit
from cmkit.linalg import Matrix


def _spans():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sites_exist():
    spans = _spans()
    missing = [(mod, attr) for mod, attr, _ in spans.SITES
               if not hasattr(importlib.import_module(f"cmkit.{mod}"), attr)]
    missing += [("linalg.Matrix", attr) for attr, _ in spans.METHODS if not hasattr(Matrix, attr)]
    assert missing == []


TRACER_MARK = "# noqa: F401  (tracer sites: bench/spans.py wraps them)"


def test_tracer_only_imports_are_tracer_sites():
    """Each name bound by an import ending on a line that holds ``TRACER_MARK`` is a tracer site, and no other
    line of the package names ``bench/spans.py``."""
    marked, unmarked = [], []
    for path in sorted(Path(cmkit.__file__).parent.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        ends = set()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and TRACER_MARK in lines[node.end_lineno - 1]:
                ends.add(node.end_lineno)
                marked += [(path.stem, alias.asname or alias.name) for alias in node.names]
        unmarked += [(path.stem, k) for k, line in enumerate(lines, 1) if "bench/spans.py" in line and k not in ends]
    sites = {(mod, attr) for mod, attr, _ in _spans().SITES}
    assert marked and [pair for pair in marked if pair not in sites] == []
    assert unmarked == []
