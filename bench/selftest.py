"""Self-test of the benchmark's checks: ``python3 bench/selftest.py [SEED]``.

Run from the root of a cmkit checkout.  For every workload it sends one
pass of requests through ``cmkit.cli.main`` in this process and requires
that every genuine report passes its check, and that every report after a
deliberate corruption (a wrong number, a flipped answer, a wrong exit code,
a truncated line) is counted as a failure.  Exits 1 if any of that fails.
"""

from __future__ import annotations

import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path.cwd() / "src"))

import gen  # noqa: E402
import run  # noqa: E402
from check import Checker  # noqa: E402


def _bump(rows: list, r: int = 0, c: int = 0) -> None:
    rows[r][c] = str(Fraction(rows[r][c]) + 1)


def corrupt_result(command: str, res: dict) -> None:
    """Make a report's result mathematically wrong, in place."""
    if command == "fiber-solve":
        _bump(res["particular"]["j"])  # changes i j by a nonzero rank-one matrix
    elif command == "classify":
        res["indecomposable"] = not res["indecomposable"]
    elif command == "invariants":
        res["invariants"][0][1] = str(Fraction(res["invariants"][0][1]) + 1)
    elif command == "hilbert-ideal":
        res["quotient_dim"] += 1
    elif command == "cech":
        res["h0_rank"] += 1
    elif command == "verify":
        res["is_cm_point"] = not res["is_cm_point"]
    elif command == "moment":
        _bump(res["value"])
    elif command in ("sample", "normalize"):
        _bump(res["quadruple"]["X"])
    elif command == "homotopy":
        _bump(res["triple"]["Y"])
    else:
        raise KeyError(command)


def corruptions(req, sample: run.Sample) -> list[tuple[str, run.Sample]]:
    report = json.loads(sample.out)
    corrupt_result(req.command, report["result"])
    wrong_value = json.dumps(report, sort_keys=True) + "\n"
    return [
        ("wrong value", run.Sample(sample.index, sample.ns, sample.code, wrong_value)),
        ("wrong exit code", run.Sample(sample.index, sample.ns, 2, sample.out)),
        ("truncated report", run.Sample(sample.index, sample.ns, sample.code, sample.out[:40])),
    ]


def main(seed: int) -> int:
    import cmkit.cli

    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        for workload, build in gen.WORKLOADS.items():
            pool = build(seed)
            for k, req in enumerate(pool):
                if req.h_doc is not None:
                    path = Path(tmp) / f"h{k}.json"
                    path.write_bytes(req.h_doc)
                    req.argv = [*req.argv, "--h", str(path)]
            samples = [run.call_warm(cmkit.cli.main, req, None, k) for k, req in enumerate(pool)]
            genuine = run.check_all(pool, samples, Checker())
            for reason in genuine:
                print(f"FAIL {workload}: genuine report rejected: {reason}")
            caught = missed = 0
            for req, sample in zip(pool, samples):
                for what, fake in corruptions(req, sample):
                    if run.check_all(pool, [fake], Checker()):
                        caught += 1
                    else:
                        missed += 1
                        print(f"FAIL {workload}: {what} in a {req.command} report passed the check")
            print(f"{workload}: {len(pool)} genuine reports, {len(genuine)} rejected; "
                  f"{caught} corrupted reports caught, {missed} missed")
            bad += len(genuine) + missed
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 0))
