"""In-memory spans around calls into cmkit's modules, for the traced run.

The tracer replaces a module attribute where the caller looks the name up
(``cmkit.koszul.solve_affine``, ``cmkit.cli.matrix_to_json``, ...) with a
wrapper that records a span: name, start, end, parent span and request id.
Nothing under ``src/`` changes.  Counters are taken only while ``counting``
is set (the first pass through a workload's requests), so they repeat
exactly for a given seed; the time spent taking them is its own span,
``trace.count``, and so is kept out of every layer's self time.
"""

from __future__ import annotations

import importlib
from time import perf_counter_ns

# (module that looks the name up, attribute, span name).  Every site a
# workload reaches is listed; a name imported into several modules is
# wrapped in each, so every call is seen exactly once.
SITES = [
    ("cli", "quadruple_from_json", "serialize.parse"),
    ("cli", "sheaf_from_json", "serialize.parse"),
    ("cli", "triple_from_json", "serialize.parse"),
    ("cli", "covector_from_json", "serialize.parse"),
    ("cli", "matrix_to_json", "serialize.emit"),
    ("cli", "quadruple_to_json", "serialize.emit"),
    ("cli", "triple_to_json", "serialize.emit"),
    ("cli", "scalar_to_json", "serialize.emit"),
    ("koszul", "solve_cm_fiber", "koszul.solve_cm_fiber"),
    ("moduli", "solve_cm_fiber", "koszul.solve_cm_fiber"),
    ("koszul", "normalize", "koszul.normalize"),
    ("koszul", "apply_homotopy", "koszul.apply_homotopy"),
    ("koszul", "solve_affine", "linalg.solve_affine"),
    ("moduli", "solve_affine", "linalg.solve_affine"),
    ("moduli", "kernel_basis", "linalg.kernel_basis"),
    ("adhm", "kernel_basis", "linalg.kernel_basis"),
    ("moduli", "rank", "linalg.rank"),
    ("adhm", "rank", "linalg.rank"),
    ("weyl", "rank", "linalg.rank"),
    ("moduli", "char_poly", "linalg.char_poly"),
    ("moduli", "endomorphisms", "moduli.endomorphisms"),
    ("moduli", "is_indecomposable", "moduli.is_indecomposable"),
    ("moduli", "support", "moduli.support"),
    ("moduli", "cm_support_check", "moduli.cm_support_check"),
    ("moduli", "framing_surjective", "moduli.framing_surjective"),
    ("adhm", "cm_residual", "adhm.cm_residual"),
    ("adhm", "moment_std", "adhm.moment_std"),
    ("adhm", "word_invariants", "adhm.word_invariants"),
    ("adhm", "hilbert_ideal", "adhm.hilbert_ideal"),
    ("adhm", "sample_cm", "adhm.sample_cm"),
    ("weyl", "cech_graded_ranks", "weyl.cech_graded_ranks"),
]
METHODS = [("__matmul__", "linalg.matmul"), ("inverse", "linalg.inverse")]
SOLVERS = {"linalg.solve_affine", "linalg.kernel_basis", "linalg.rank", "linalg.inverse"}
COUNTED = SOLVERS | {"moduli.is_indecomposable", "weyl.cech_graded_ranks"}


def _matrices(value):
    """The cmkit matrices in a solver argument or result."""
    if hasattr(value, "entries"):
        yield value
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _matrices(v)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1, request]
        self.request = -1
        self.counting = False
        self.counts = {"system_entries": 0, "system_nonzero": 0, "max_coeff_bits": 0,
                       "indecomposable_calls": 0, "conclusive": 0,
                       "cech_calls": 0, "certified": 0}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        parent = stack[-1] if stack else -1
        span = [name, 0, 0, parent, self.request]
        spans.append(span)
        stack.append(idx)
        span[1] = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter_ns()
            stack.pop()
        if self.counting and name in COUNTED:
            start = perf_counter_ns()
            self._count(name, args, result)
            spans.append(["trace.count", start, perf_counter_ns(), parent, self.request])
        return result

    def _count(self, name: str, args, result) -> None:
        c = self.counts
        if name in SOLVERS:
            for m in _matrices(args):
                c["system_entries"] += len(m.entries)
                c["system_nonzero"] += sum(1 for x in m.entries if x != 0)
            for m in (*_matrices(args), *_matrices(result)):
                for x in m.entries:
                    if x:
                        c["max_coeff_bits"] = max(c["max_coeff_bits"], x.numerator.bit_length(),
                                                  x.denominator.bit_length())
        elif name == "moduli.is_indecomposable":
            c["indecomposable_calls"] += 1
            c["conclusive"] += result != "inconclusive"
        elif name == "weyl.cech_graded_ranks":
            c["cech_calls"] += 1
            c["certified"] += bool(result.certified)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every site; ``uninstall`` puts the original objects back."""
        for mod_name, attr, name in SITES:
            mod = importlib.import_module(f"cmkit.{mod_name}")
            self._replace(mod, attr, self._wrap(name, getattr(mod, attr)))
        matrix = importlib.import_module("cmkit.linalg").Matrix
        for attr, name in METHODS:
            self._replace(matrix, attr, self._wrap(name, getattr(matrix, attr)))

    def _replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def merge(self, spans: list[list], counts: dict, request: int) -> None:
        """Add the spans and counts of one traced child process as one request."""
        base = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, request])
        if self.counting:
            for key, value in counts.items():
                if key == "max_coeff_bits":
                    self.counts[key] = max(self.counts[key], value)
                else:
                    self.counts[key] += value


def self_times(spans: list[list], scale: dict[int, float]) -> dict[str, dict[str, float]]:
    """Per span name: calls, and inclusive, self and solve_affine-child ms at reference speed.

    Self time is a span's duration minus the durations of its direct
    children; children never overlap, since every call is synchronous.  Each
    span is scaled by the factor of its request.
    """
    child_ns = [0] * len(spans)
    affine_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
            if name == "linalg.solve_affine":
                affine_ns[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for k, (name, start, end, _, request) in enumerate(spans):
        f = scale[request] / 1e6
        agg = out.setdefault(name, {"calls": 0, "incl_ms": 0.0, "self_ms": 0.0, "affine_ms": 0.0})
        agg["calls"] += 1
        agg["incl_ms"] += (end - start) * f
        agg["self_ms"] += (end - start - child_ns[k]) * f
        agg["affine_ms"] += affine_ns[k] * f
    return out
