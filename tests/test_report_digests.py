"""Pinned report digests: one in-process pass of three benchmark pools.

Each pool is the list of requests ``bench/gen.py`` builds for a workload
and a seed; its digest is the sha256 over the reports of one pass, in pass
order, as ``bench/run.py`` takes it.  The seeds are used by no benchmark
run, so a change that moves any byte of any report (a pivot, a sign, a
factor order) fails here in every test run and not only in the benchmark's
paired runs.  A change that alters reports on purpose re-pins the digests
and says which reports moved and why.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import sys
from pathlib import Path

import pytest

from cmkit import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"

# (workload, seed) -> sha256 of one pass; the pools hold 105, 104 and 100 requests
PINNED = {
    ("fiber-diag", 4101): "sha256:04a63b8face9cfffe343c6ffc642d67d5e87bcaaf0ba6ce00d2e794167d90537",
    ("fiber-dense", 4102): "sha256:22f1a295027c3f8da60bad026390310a222c8acead6b6ca141d85ab668a362fa",
    ("structure", 4103): "sha256:35b5a077ed76c8069caba51147eecc58275b7706937cb7af048e2eab6d621e6f",
}


def _gen():
    """``bench/gen.py``, imported with ``bench`` on the path only while it and ``qmat`` load."""
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("gen")
    finally:
        sys.path.remove(str(BENCH))


class _Stdin:
    """What ``cli.main`` reads: ``sys.stdin.buffer``."""

    def __init__(self, data: bytes) -> None:
        self.buffer = io.BytesIO(data)


def pass_digest(workload: str, seed: int, monkeypatch) -> str:
    h = hashlib.sha256()
    for req in _gen().WORKLOADS[workload](seed):
        assert req.h_doc is None
        out = io.StringIO()
        monkeypatch.setattr(sys, "stdin", _Stdin(req.doc or b""))
        monkeypatch.setattr(sys, "stdout", out)
        cli.main(list(req.argv))
        h.update(out.getvalue().encode())
    return "sha256:" + h.hexdigest()


@pytest.mark.parametrize("workload, seed", list(PINNED), ids=[w for w, _ in PINNED])
def test_one_pass_of_the_pool_gives_the_pinned_digest(workload, seed, monkeypatch):
    assert pass_digest(workload, seed, monkeypatch) == PINNED[workload, seed]
