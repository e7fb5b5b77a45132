"""Machine-speed calibration: times on a shared machine, scaled to a reference speed.

On a shared host the speed of this process drifts by a third and more over
tens of seconds, whatever it runs, so raw wall times of the same work
differ from run to run by more than the regressions the benchmark has to
see.  The benchmark therefore times a fixed reference right before every
request and reports each time scaled to a machine on which the reference
takes a fixed time:

    reported = wall * reference.ms / (median of the reference times around it)

Work in this process is scaled by an exact rational matrix product with
30-bit entries (stdlib only, the kind of work cmkit does), which the machine
slows down about as much as it slows cmkit.  A fresh process is scaled by
the start of a bare interpreter, which the machine slows down as much as a
cold cmkit command.  The raw wall times are kept in the run record beside the scaled
ones.
"""

from __future__ import annotations

import gc
import random
import statistics
import subprocess
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter_ns
from typing import Callable

import qmat

WINDOW = 4  # reference times on each side of a sample that scale it

_rng = random.Random(0)
_M = [[Fraction(_rng.randint(-2**30, 2**30), _rng.randint(1, 2**30)) for _ in range(6)]
      for _ in range(6)]


@dataclass(frozen=True)
class Reference:
    measure: Callable[[], float]  # one reference time, ms
    ms: float  # its time on the reference machine
    every: int = 1  # requests per reference time

    def scales(self, refs: list[float]) -> list[float]:
        """Per sample, ms over the median reference time in a window centred on it."""
        return [self.ms / statistics.median(refs[max(0, k - WINDOW): k + WINDOW + 1])
                for k in range(len(refs))]

    def timed(self, fn):
        """Call fn(); return (its result, wall ms, scale from references before and after)."""
        refs = [self.measure() for _ in range(2)]
        t0 = perf_counter_ns()
        result = fn()
        wall = (perf_counter_ns() - t0) / 1e6
        refs += [self.measure() for _ in range(2)]
        return result, wall, self.ms / statistics.median(refs)


def _product_ms() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter_ns()
        qmat.mul(_M, _M)
        return (perf_counter_ns() - t0) / 1e6
    finally:
        if enabled:
            gc.enable()


CPU = Reference(_product_ms, 1.2)


def process_start(cmd: list[str], env: dict, cwd) -> Reference:
    """Reference for fresh processes: one run of ``cmd``, a bare interpreter, every 4th request."""
    def measure() -> float:
        t0 = perf_counter_ns()
        subprocess.run(cmd, env=env, cwd=cwd, check=True, capture_output=True, timeout=60)
        return (perf_counter_ns() - t0) / 1e6

    return Reference(measure, 50.0, every=4)
