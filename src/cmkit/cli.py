"""Command-line surface with JSON input/output and deterministic reports.

Every command emits one report object on stdout:

    {"command": ..., "input_digest": "sha256:...", "status": "ok" |
     "infeasible" | "error", "result": {...}, "messages": [...]}

Exit codes: 0 for ok, 1 for a mathematically meaningful negative answer
(empty CM fiber, violated CM relation), 2 for malformed input or violated
preconditions.  An unexpected exception inside a command (a defect, such as
a failed internal certificate) is also exit 2: one ``"error"`` report whose
message starts with ``internal error:``, never a traceback.  ``--batch``
processes newline-delimited JSON, one report per line, preserving input
order, and goes on after any failed line; the exit code is the worst
per-line status.

A handler takes its command's document already read.  ``_HANDLERS`` names
the kind of document each command reads (quadruple, triple or sheaf, or
none), and ``_run_single`` reads it once, with the reader of that kind that
it looks up in this module by name (``quadruple_from_json``, ...) and the
default field of ``--field`` and ``--tolerance``.

Each handler imports the modules it calls, so a cold process loads only what
its one command runs.  Besides ``linalg`` and ``serialize``: ``cech`` loads
``weyl``; the quadruple commands load ``adhm``; ``fiber-solve`` and
``homotopy`` load ``koszul``; ``classify`` loads ``koszul`` and ``moduli``,
and ``factor`` only for a rational X with an irreducible diagonal block
larger than 1 x 1 (so not for a triangular X); ``normalize`` loads
``koszul`` and ``adhm``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys

from .linalg import DEFAULT_TOLERANCE, format_terms
from .serialize import (
    field_from_name,
    covector_from_json,
    matrix_to_json,
    quadruple_to_json,
    scalar_to_json,
    triple_to_json,
)
from .serialize import quadruple_from_json, sheaf_from_json, triple_from_json  # noqa: F401  (see _HANDLERS)

OK, INFEASIBLE, ERROR = 0, 1, 2
_STATUS = {OK: "ok", INFEASIBLE: "infeasible", ERROR: "error"}


def _digest(raw: bytes) -> str:
    return "sha256:" + hashlib.sha256(raw).hexdigest()


def _report(command: str, digest: str, code: int, result, messages: list[str]) -> dict:
    return {
        "command": command,
        "input_digest": digest,
        "status": _STATUS[code],
        "result": result,
        "messages": messages,
    }


def _load_json(raw: bytes):
    """Parse a JSON document; every way it can fail to decode is one ValueError."""
    try:
        return json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ValueError(f"invalid JSON: {exc}") from None


def _emit(report: dict, stream) -> None:
    stream.write(json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")


def _cmd_verify(q, args):
    from . import adhm

    res = adhm.cm_residual(q)
    ok = res.is_zero()
    result = {
        "cm_residual": matrix_to_json(res),
        "moment_std": matrix_to_json(adhm.moment_std(q)),
        "is_cm_point": ok,
    }
    msgs = [] if ok else ["CM relation fails: residual is nonzero"]
    return result, OK if ok else INFEASIBLE, msgs


def _cmd_moment(q, args):
    from . import adhm

    value = adhm.moment_std(q) if args.convention == "std" else adhm.cm_residual(q)
    return (
        {"convention": args.convention, "value": matrix_to_json(value), "is_zero": value.is_zero()},
        OK,
        [],
    )


def _cmd_invariants(q, args):
    from . import adhm

    inv = adhm.word_invariants(q, args.max_len)
    return (
        {"max_len": args.max_len, "invariants": [[label, scalar_to_json(v, q.field)] for label, v in inv]},
        OK,
        [],
    )


def _cmd_hilbert_ideal(q, args):
    from . import adhm

    rational = q.field.is_rational
    # A rational term is a pair (p, c) in lowest terms, c > 0, printed once as str(Fraction(p, c)) prints it.
    ideal = adhm._hilbert_terms(q, args.degree)
    # Each generator lists its terms in poly_str order, so pretty is format_terms of them as they come;
    # format_terms reads the printed "1" and "-1" as units.
    monomials = {m: adhm.monomial_str(*m) for m in ideal.monomials}
    basis = []
    for poly in ideal.basis:
        printed = [(m, str(p) if c == 1 else f"{p}/{c}") for m, (p, c) in poly] if rational else poly
        terms = [[a, b, c if rational else scalar_to_json(c, q.field)] for (a, b), c in sorted(printed)]
        basis.append({"terms": terms, "pretty": format_terms((c, monomials[m]) for m, c in printed)})
    result = {
        "degree_bound": ideal.degree_bound,
        "quotient_dim": ideal.quotient_dim,
        "ideal_basis": basis,
    }
    return result, OK, []


def _cmd_sample(_, args):
    from . import adhm

    q = adhm.sample_cm(args.n, args.seed)
    return {"quadruple": quadruple_to_json(q)}, OK, []


def _cmd_normalize(kt, args):
    from . import koszul

    q = koszul.normalize(kt)
    return {"quadruple": quadruple_to_json(q)}, OK, []


def _cmd_homotopy(kt, args):
    from . import koszul

    try:
        with open(args.h, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise OSError(f"cannot read --h file: {exc}") from None
    hdata = _load_json(raw)
    h = covector_from_json(hdata, kt.field, "h", (kt.r, kt.n))
    out = koszul.apply_homotopy(kt, h)
    return {"triple": triple_to_json(out)}, OK, []


def _cmd_fiber_solve(fs, args):
    from . import koszul

    sol = koszul.solve_cm_fiber(fs)
    if sol is None:
        return {"feasible": False}, INFEASIBLE, ["empty CM fiber: (X, i) lies outside the support"]
    result = {
        "feasible": True,
        "particular": {"Y": matrix_to_json(sol.particular_Y), "j": matrix_to_json(sol.particular_j)},
        "kernel_dim": sol.dimension,
        "kernel_basis": [
            {"Y": matrix_to_json(y), "j": matrix_to_json(j)} for y, j in sol.kernel_basis
        ],
    }
    return result, OK, []


def _cmd_classify(fs, args):
    from . import moduli

    surjective = moduli.framing_surjective(fs)
    block = moduli._end_block(fs, surjective=surjective)
    report = moduli.cm_support_check(fs, block)
    if fs.field.is_rational:
        factors = moduli.support(fs)
        sup = [{"factor": moduli.factor_str(coeffs), "coeffs": [str(c) for c in coeffs], "multiplicity": m}
               for coeffs, m in factors]
        indec = moduli.is_indecomposable(fs, factors, block)
    else:
        sup = [{"root": [z.real, z.imag], "multiplicity": m} for z, m in moduli.support(fs)]
        indec = moduli.INCONCLUSIVE
    result = {
        "support": sup,
        "framing_surjective": surjective,
        "end_dim": block.rows,
        "indecomposable": indec,
        "in_cm_support": report.in_support,
        "fiber_dim": report.fiber_dim,
    }
    msgs = [] if report.in_support else ["empty CM fiber over this sheaf"]
    return result, OK if report.in_support else INFEASIBLE, msgs


def _cmd_cech(_, args):
    from . import weyl

    ranks = weyl.cech_graded_ranks(args.twist, args.cutoff)
    result = {
        "twist": args.twist,
        "h0_rank": ranks.h0_rank,
        "h1_rank": ranks.h1_rank,
        "certified": ranks.certified,
    }
    return result, OK, []


# Each command's handler and the kind of document it reads (None: it reads none).  _run_single reads the
# document with <kind>_from_json, looked up here by name when it runs, so a reader replaced on this module
# (as the benchmark tracer replaces it) is the one that runs.
_HANDLERS = {
    "verify": (_cmd_verify, "quadruple"),
    "moment": (_cmd_moment, "quadruple"),
    "invariants": (_cmd_invariants, "quadruple"),
    "hilbert-ideal": (_cmd_hilbert_ideal, "quadruple"),
    "sample": (_cmd_sample, None),
    "normalize": (_cmd_normalize, "triple"),
    "homotopy": (_cmd_homotopy, "triple"),
    "fiber-solve": (_cmd_fiber_solve, "sheaf"),
    "classify": (_cmd_classify, "sheaf"),
    "cech": (_cmd_cech, None),
}


# Building the parser costs far more than parsing with it, and parse_args keeps
# no state in it, so one parser serves every call of main in a process.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmkit",
        description="Exact matrix models of Calogero-Moser spaces on the affine line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, **extra) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **extra)
        if _HANDLERS[name][1]:  # the command reads a JSON document
            p.add_argument("--input", help="path to a JSON input (default: stdin)")
            p.add_argument("--batch", action="store_true", help="newline-delimited JSON inputs")
            p.add_argument("--field", choices=["rational", "complex"], default="rational",
                           help="default field for inputs that omit one")
            p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                           help="comparison tolerance (complex field only)")
        return p

    add("verify", help="check the CM relation and report both moment conventions")
    p = add("moment", help="evaluate a moment-map convention")
    p.add_argument("--convention", choices=["std", "cm"], default="std")
    p = add("invariants", help="trace and pairing invariants of words in X, Y")
    p.add_argument("--max-len", type=int, default=3, dest="max_len")
    p = add("hilbert-ideal", help="ideal of the point configuration of a commuting stable pair")
    p.add_argument("--degree", type=int, default=None)
    p = add("sample", help="reproducible random CM point")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    add("normalize", help="unique CM quadruple homotopic to a Koszul triple")
    p = add("homotopy", help="act on a Koszul triple by a polynomial homotopy")
    p.add_argument("--h", required=True, help="path to a covector JSON file {\"coeffs\": [...]}")
    add("fiber-solve", help="solve the CM fiber over a framed sheaf (X, i)")
    add("classify", help="support, endomorphisms, indecomposability, CM support")
    p = add("cech", help="graded cohomology ranks of the twisted difference complex")
    p.add_argument("--twist", type=int, required=True)
    p.add_argument("--cutoff", type=int, default=None,
                   help="window size, at least |twist| + 2 (optional: the ranks do not depend on it)")
    return parser


def _run_single(args, raw: bytes, stream) -> int:
    handler, kind = _HANDLERS[args.command]
    digest = _digest(raw if kind else repr(sorted(vars(args).items())).encode())
    try:
        doc = None if kind is None else globals()[f"{kind}_from_json"](
            _load_json(raw), default_field=field_from_name(args.field, args.tolerance))
        result, code, msgs = handler(doc, args)
    except (ValueError, ArithmeticError, OSError) as exc:  # SchemaError, ShapeError, SingularMatrixError too
        _emit(_report(args.command, digest, ERROR, None, [str(exc)]), stream)
        return ERROR
    except Exception as exc:  # a defect in cmkit: still one report, and --batch goes on
        _emit(_report(args.command, digest, ERROR, None, [f"internal error: {type(exc).__name__}: {exc}"]), stream)
        return ERROR
    _emit(_report(args.command, digest, code, result, msgs), stream)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    stream = sys.stdout
    if _HANDLERS[args.command][1] is None:
        return _run_single(args, b"", stream)
    if args.input:
        try:
            with open(args.input, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            _emit(_report(args.command, _digest(b""), ERROR, None, [f"cannot read input: {exc}"]), stream)
            return ERROR
    else:
        raw = sys.stdin.buffer.read()
    if args.batch:  # every command that reads input defines --batch
        worst = OK
        for line in raw.splitlines():
            if not line.strip():
                continue
            worst = max(worst, _run_single(args, line, stream))
        return worst
    return _run_single(args, raw, stream)


if __name__ == "__main__":
    sys.exit(main())
