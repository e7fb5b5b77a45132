"""cmkit benchmark: four closed-loop workloads with exact output checks.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

Run from the root of a source checkout; cmkit is imported from ``src/``.
Every workload is one client that sends its next request when the previous
one has returned.  With ``--trace 0`` the run measures the end-to-end
metrics; with ``--trace 1`` it measures an untraced and a traced half and
prints the per-layer metrics, taken from spans around calls into each cmkit
module.  Every report is checked exactly after the timed section.  Times
are scaled to a reference machine speed (see calib.py).

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record of the run (environment, input
sizes, report digest, raw wall times, family shares, layer self times) is
appended to ``DIR/runs.jsonl`` (default ``.bench_out``); a traced run also
writes its spans to ``DIR/spans-<workload>-<seed>.jsonl``.  ``compare.py``
compares two such files.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import calib  # noqa: E402
import gen  # noqa: E402
from check import Checker  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

COLD_COMMANDS = ("verify", "moment", "invariants", "hilbert-ideal", "sample", "normalize",
                 "homotopy", "fiber-solve", "classify", "cech")
SETUP_REPS = 3
MIN_SAMPLES = 100  # p90 needs at least ten samples beyond it
CHILD_TIMEOUT_S = 60


class Sample:
    """One request: pass index, wall ns, reference ms before it, exit code, stdout."""

    __slots__ = ("index", "ns", "ref", "scale", "code", "out")

    def __init__(self, index: int, ns: int, code, out: str) -> None:
        self.index, self.ns, self.code, self.out = index, ns, code, out
        self.ref = self.scale = 1.0

    @property
    def ms(self) -> float:
        """Latency in ms at the reference speed."""
        return self.ns / 1e6 * self.scale


# -- environment -------------------------------------------------------------

def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PYTHONSTARTUP", None)
    return env


def _child(root: Path, args: list[str]) -> str:
    return subprocess.run([sys.executable, *args], env=_child_env(root), cwd=root, check=True,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S).stdout


def start_reference(root: Path) -> calib.Reference:
    return calib.process_start([sys.executable, "-c", "pass"], _child_env(root), root)


def import_ms(root: Path, reps: int = 5) -> float:
    """Median time of ``import cmkit.cli`` timed inside a fresh process, at reference speed."""
    code = "import time; t = time.perf_counter(); import cmkit.cli; print(time.perf_counter() - t)"
    ref = start_reference(root)
    runs = [ref.timed(lambda: _child(root, ["-c", code])) for _ in range(reps)]
    return statistics.median(float(out) * 1e3 * scale for out, _, scale in runs)


def environment(root: Path) -> dict:
    commit = "unknown"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        commit = proc.stdout.strip() or commit
    start = start_reference(root)
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cli.interpreter_ms": statistics.median(start.measure() for _ in range(5)),
        "cpu_reference_ms": statistics.median(calib.CPU.measure() for _ in range(21)),
    }


# -- warm workloads: cli.main in this process ---------------------------------

class _Stdin:
    """What cli.main reads: ``sys.stdin.buffer``."""

    def __init__(self, data: bytes) -> None:
        self.buffer = io.BytesIO(data)


def _purge_cmkit() -> None:
    for name in [m for m in sys.modules if m == "cmkit" or m.startswith("cmkit.")]:
        del sys.modules[name]


def setup_warm(workload: str, seed: int):
    """Import cmkit, build the inputs and send one request of each family."""
    _purge_cmkit()
    cli = importlib.import_module("cmkit.cli")
    pool = gen.WORKLOADS[workload](seed)
    seen = set()
    for k, req in enumerate(pool):
        if req.family not in seen:
            seen.add(req.family)
            call_warm(cli.main, req, None, k)
    return cli, pool


def call_warm(main, req, tracer: Tracer | None, index: int) -> Sample:
    out = io.StringIO()
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = _Stdin(req.doc or b""), out
    code = None
    try:
        t0 = time.perf_counter_ns()
        try:
            if tracer is None:
                code = main(list(req.argv))
            else:
                code = tracer.call("cli.main", main, list(req.argv))
        except (Exception, SystemExit) as exc:  # a crash is a failed request, not a failed run
            out.write(f"{type(exc).__name__}: {exc}\n")
        ns = time.perf_counter_ns() - t0
    finally:
        sys.stdin, sys.stdout = saved
    return Sample(index, ns, code, out.getvalue())


def loop(pool, seconds: float, min_samples: int, send, reference: calib.Reference) -> list[Sample]:
    """Closed loop over whole passes until time is up and min_samples are done.

    Every run measures whole passes, so each one sends the same mix of
    requests, and the percentiles do not depend on where in a pass the
    clock ran out.  The reference is timed before every ``reference.every``-th
    request and scales the requests up to the next one.
    """
    samples: list[Sample] = []
    refs: list[float] = []
    gc.collect()
    deadline = time.perf_counter() + seconds
    k = 0
    while k % len(pool) or k < min_samples or time.perf_counter() < deadline:
        if k % reference.every == 0:
            refs.append(reference.measure())
        samples.append(send(pool[k % len(pool)], k))
        k += 1
    scales = reference.scales(refs)
    for k, s in enumerate(samples):
        s.ref, s.scale = refs[k // reference.every], scales[k // reference.every]
    return samples


# -- cli-cold: one process per request ----------------------------------------

class ColdRunner:
    def __init__(self, root: Path, workdir: Path, pool) -> None:
        self.root, self.env = root, _child_env(root)
        self.argvs = []
        for k, req in enumerate(pool):
            argv = list(req.argv)
            if req.h_doc is not None:
                path = workdir / f"h{k}.json"
                path.write_bytes(req.h_doc)
                argv += ["--h", str(path)]
            self.argvs.append(argv)
        self.spans_path = workdir / "spans.json"

    def send(self, req, k: int, tracer: Tracer | None = None) -> Sample:
        argv = self.argvs[k % len(self.argvs)]
        if tracer is None:
            cmd = [sys.executable, "-m", "cmkit.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "coldchild.py"), str(self.spans_path), *argv]
        t0 = time.perf_counter_ns()
        proc = subprocess.run(cmd, input=req.doc or b"", capture_output=True, env=self.env,
                              cwd=self.root, timeout=CHILD_TIMEOUT_S)
        ns = time.perf_counter_ns() - t0
        out = proc.stdout.decode("utf-8", "replace")
        if proc.stderr:
            out += proc.stderr.decode("utf-8", "replace")
        if tracer is not None and self.spans_path.exists():
            data = json.loads(self.spans_path.read_text())
            self.spans_path.unlink()
            tracer.counting = k < len(self.argvs)
            tracer.merge(data["spans"], data["counts"], k)
        return Sample(k, ns, proc.returncode, out)


def setup_cold(root: Path, workdir: Path, seed: int):
    """Build the inputs, write the ``--h`` files and start one cold process."""
    pool = gen.cli_cold(seed)
    runner = ColdRunner(root, workdir, pool)
    runner.send(pool[0], 0)
    return runner, pool


# -- metrics -----------------------------------------------------------------

def latency_metrics(samples: list[Sample]) -> dict[str, float]:
    lat = [s.ms for s in samples]
    return {
        "latency_ms_p50": statistics.median(lat),
        "latency_ms_p90": statistics.quantiles(lat, n=10)[8],
        "throughput_per_s": 1e3 * len(lat) / sum(lat),
    }


def _mean_ms_per_doc(samples: list[Sample], pool_len: int) -> float:
    """Mean over the pass of each request's median latency."""
    per_doc: dict[int, list[float]] = {}
    for s in samples:
        per_doc.setdefault(s.index % pool_len, []).append(s.ms)
    return statistics.fmean(statistics.median(v) for v in per_doc.values())


def layer_metrics(tracer: Tracer, traced: list[Sample], pool, untraced: list[Sample]):
    """Per-layer metrics: mean scaled ms per request, and first-pass counts per request."""
    agg = self_times(tracer.spans, {s.index: s.scale for s in traced})
    first_pass = Counter(span[0] for span in tracer.spans if span[4] < len(pool))
    requests = len(traced)

    def per_req(name: str, key: str = "self_ms") -> float:
        return agg.get(name, {}).get(key, 0.0) / requests

    def calls(name: str) -> float:
        return first_pass[name] / len(pool)

    def ratio(part: int, whole: int) -> float:
        return part / whole if whole else 0.0

    c = tracer.counts
    m = {
        "koszul.solve_cm_fiber_ms": per_req("koszul.solve_cm_fiber", "incl_ms"),
        "koszul.fiber_build_ms": per_req("koszul.solve_cm_fiber", "incl_ms")
        - per_req("koszul.solve_cm_fiber", "affine_ms"),
        "linalg.solve_affine_ms": per_req("linalg.solve_affine"),
        "linalg.solve_affine_calls": calls("linalg.solve_affine"),
        "linalg.kernel_basis_ms": per_req("linalg.kernel_basis"),
        "linalg.rank_ms": per_req("linalg.rank"),
        "linalg.inverse_ms": per_req("linalg.inverse"),
        "linalg.char_poly_ms": per_req("linalg.char_poly"),
        "linalg.matmul_ms": per_req("linalg.matmul"),
        "linalg.matmul_calls": calls("linalg.matmul"),
        "linalg.system_entries": c["system_entries"] / len(pool),
        "linalg.system_nonzero_ratio": ratio(c["system_nonzero"], c["system_entries"]),
        "linalg.max_coeff_bits": c["max_coeff_bits"],
        "moduli.endomorphisms_ms": per_req("moduli.endomorphisms"),
        "moduli.is_indecomposable_ms": per_req("moduli.is_indecomposable"),
        "moduli.support_ms": per_req("moduli.support"),
        "moduli.cm_support_check_ms": per_req("moduli.cm_support_check"),
        "moduli.conclusive_ratio": ratio(c["conclusive"], c["indecomposable_calls"]),
        "adhm.word_invariants_ms": per_req("adhm.word_invariants"),
        "adhm.hilbert_ideal_ms": per_req("adhm.hilbert_ideal"),
        "weyl.cech_graded_ranks_ms": per_req("weyl.cech_graded_ranks"),
        "weyl.certified_ratio": ratio(c["certified"], c["cech_calls"]),
        "serialize.parse_ms": per_req("serialize.parse"),
        "serialize.emit_ms": per_req("serialize.emit"),
        "serialize.output_bytes": statistics.fmean(
            len(s.out.encode()) for s in traced if s.index < len(pool)),
        "cli.self_ms": per_req("cli.main"),
        "trace.overhead_pct": 100.0 * (_mean_ms_per_doc(traced, len(pool))
                                       / _mean_ms_per_doc(untraced, len(pool)) - 1.0),
    }
    layers: Counter = Counter()
    for name, a in agg.items():
        layers[name.split(".")[0]] += a["self_ms"] / requests
    request_ms = per_req("cli.main", "incl_ms")
    detail = {
        "layer_self_ms": dict(layers),
        "request_ms": request_ms,
        "accounted_pct": 100.0 * sum(layers.values()) / request_ms,
        "spans": {name: {"calls": a["calls"], "self_ms": a["self_ms"], "incl_ms": a["incl_ms"]}
                  for name, a in sorted(agg.items())},
    }
    return m, detail


UNITS = (("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"), ("_pct", "%"),
         ("_calls", "count"), ("_entries", "count"), ("_bytes", "bytes"), ("_ratio", "ratio"),
         ("_bits", "bits"))


def unit_of(name: str) -> str:
    if "_ms" in name:
        return "ms"
    return next(unit for suffix, unit in UNITS if name.endswith(suffix))


# -- the run -----------------------------------------------------------------

def check_all(pool, samples: list[Sample], checker: Checker) -> list[str]:
    failures = []
    for s in samples:
        req = pool[s.index % len(pool)]
        reason = checker.check(req, s.code, s.out)
        if reason is not None:
            failures.append(f"request {s.index} ({req.family}): {reason}")
    return failures


def digest(samples: list[Sample], pool_len: int) -> str:
    """sha256 over the reports of the first pass, in pass order."""
    h = hashlib.sha256()
    for s in samples[:pool_len]:
        h.update(s.out.encode())
    return "sha256:" + h.hexdigest()


def measure_setups(args, root: Path, workdir: Path | None, reference: calib.Reference):
    """Set up SETUP_REPS times; return the last (send, pool) and the scaled and wall medians."""
    scaled, walls = [], []
    for _ in range(SETUP_REPS):
        if workdir is not None:
            (runner, pool), wall, scale = reference.timed(
                lambda: setup_cold(root, workdir, args.seed))
            send = runner.send
        else:
            (cli, pool), wall, scale = reference.timed(
                lambda: setup_warm(args.workload, args.seed))

            def send(req, k, tracer=None, main=cli.main):
                return call_warm(main, req, tracer, k)
        scaled.append(wall * scale / 1e3)
        walls.append(wall / 1e3)
    return send, pool, statistics.median(scaled), statistics.median(walls)


def run(args, root: Path) -> tuple[dict, dict]:
    """Measure one workload; returns (printed metrics, full record)."""
    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "env": environment(root)}
    cold = args.workload == "cli-cold"
    ref = start_reference(root) if cold else calib.CPU
    with tempfile.TemporaryDirectory(prefix="work-", dir=args.out) as workdir:
        send, pool, setup_s, setup_wall = measure_setups(
            args, root, Path(workdir) if cold else None, ref)
        record["inputs"] = {
            "requests_per_pass": len(pool),
            "n": dict(sorted(Counter(f"{r.command} n={r.n}" for r in pool).items())),
            "max_coeff_bits": max(r.bits for r in pool),
        }
        if not args.trace:
            samples = loop(pool, args.seconds, MIN_SAMPLES, send, ref)
            checked = samples
            usage = resource.getrusage(resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF)
            metrics = {"setup_s": setup_s, **latency_metrics(samples),
                       "peak_rss_mb": usage.ru_maxrss / 1024}
            wall = [s.ns / 1e6 for s in samples]
            record["wall"] = {"setup_s": setup_wall, "latency_ms_p50": statistics.median(wall),
                              "latency_ms_p90": statistics.quantiles(wall, n=10)[8],
                              "throughput_per_s": 1e3 * len(wall) / sum(wall)}
            by_family: Counter = Counter()
            for s in samples:
                by_family[pool[s.index % len(pool)].family] += s.ms
            total = sum(by_family.values())
            record["family_share"] = {f: v / total for f, v in sorted(by_family.items())}
        else:
            samples = loop(pool, args.seconds / 2, 0, send, ref)
            tracer = Tracer()
            if cold:
                traced = loop(pool, args.seconds / 2, 0, lambda req, k: send(req, k, tracer), ref)
            else:
                def send_traced(req, k):
                    tracer.request, tracer.counting = k, k < len(pool)
                    return send(req, k, tracer)

                tracer.install()
                try:
                    traced = loop(pool, args.seconds / 2, 0, send_traced, ref)
                finally:
                    tracer.uninstall()
            checked = samples + traced
            metrics, record["trace_detail"] = layer_metrics(tracer, traced, pool, samples)
            metrics["cli.interpreter_ms"] = record["env"]["cli.interpreter_ms"]
            metrics["cli.import_ms"] = import_ms(root)
            for command in COLD_COMMANDS:
                times = [s.ms for s in samples if pool[s.index % len(pool)].command == command]
                metrics[f"cli.cold_ms.{command}"] = statistics.median(times) if cold else 0.0
            write_spans(Path(args.out) / f"spans-{args.workload}-{args.seed}.jsonl", tracer.spans)
    failures = check_all(pool, checked, Checker())
    record.update({
        "digest": digest(samples, len(pool)),
        "samples": len(samples),
        "attempted": len(checked),
        "failed": len(failures),
        "error_rate": len(failures) / len(checked),
        "failures": failures[:20],
        "reference_ms_median": statistics.median(s.ref for s in samples),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    })
    return metrics, record


def write_spans(path: Path, spans: list[list]) -> None:
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".bench_out", help="directory for runs.jsonl and spans")
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "cmkit" / "cli.py").is_file():
        print(f"error: no cmkit sources under {src}; run from the root of a cmkit checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import cmkit

    if not Path(cmkit.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: cmkit was imported from {cmkit.__file__}, not from {src}", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)

    metrics, record = run(args, root)
    with open(Path(args.out) / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} samples={record['samples']} "
          f"attempted={record['attempted']} failed={record['failed']} "
          f"error_rate={record['error_rate']:.4f} digest={record['digest']}")
    for reason in record["failures"]:
        print(f"# FAIL {reason}")
    for name, value in metrics.items():
        print(f"{args.workload:12s} {name:32s} {value:14.4f} {unit_of(name)}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
