"""Every cmkit name the benchmark tracer wraps exists.

``bench/spans.py`` replaces module attributes and ``Matrix`` methods by
name; a renamed or deleted one would only fail once a traced benchmark run
starts.  This checks the names without running any workload.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

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
