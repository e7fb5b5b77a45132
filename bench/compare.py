"""Compare two benchmark result files: ``python3 bench/compare.py BASE.jsonl NEW.jsonl``.

Each file holds run records as ``bench/run.py`` appends them to
``runs.jsonl``.  For every workload and metric the script prints each
side's median and quartiles over its runs and the ratio NEW/BASE with its
base, then every seed whose report digest differs between the sides.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def load(path: str) -> dict:
    """(workload, trace) -> metric values, units, and report digests by seed."""
    groups: dict = defaultdict(lambda: {"metrics": defaultdict(list), "units": {},
                                        "digests": defaultdict(set)})
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            g = groups[(rec["workload"], rec["trace"])]
            for name, m in rec["metrics"].items():
                g["metrics"][name].append(m["value"])
                g["units"][name] = m["unit"]
            g["digests"][rec["seed"]].add(rec["digest"])
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        b, n = base[key], new[key]
        print(f"== {workload} (trace={trace}): base {len(next(iter(b['metrics'].values())))} runs, "
              f"new {len(next(iter(n['metrics'].values())))} runs")
        print(f"  {'metric':32s} {'base q1/med/q3':>32s} {'new q1/med/q3':>32s}  new/base")
        for name in b["metrics"]:
            if name not in n["metrics"]:
                continue
            bq, nq = quartiles(b["metrics"][name]), quartiles(n["metrics"][name])
            ratio = (f"{nq[1] / bq[1]:.3f} (base {bq[1]:.4g} {b['units'][name]})" if bq[1]
                     else "n/a (base 0)")
            print(f"  {name:32s} {'/'.join(f'{v:.4g}' for v in bq):>32s} "
                  f"{'/'.join(f'{v:.4g}' for v in nq):>32s}  {ratio}")
        for seed in sorted(set(b["digests"]) & set(n["digests"])):
            if b["digests"][seed] != n["digests"][seed]:
                print(f"  DIGEST CHANGED seed {seed}: {sorted(b['digests'][seed])} -> "
                      f"{sorted(n['digests'][seed])}")
    for key in sorted(set(base) ^ set(new)):
        print(f"== {key[0]} (trace={key[1]}): only in {'base' if key in base else 'new'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
