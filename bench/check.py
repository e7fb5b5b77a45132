"""Exact checks of cmkit reports, recomputed with stdlib fractions.

``Checker.check`` returns None when a report is right and a one-line reason
when it is not.  Verdicts are cached per request and report text: cmkit is
deterministic, so after the first pass most reports are byte-identical to
one already checked, and the check of every report stays cheap.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product

import qmat
from gen import Request

STATUS = {0: "ok", 1: "infeasible", 2: "error"}


class CheckFailed(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _cm_residual(q: dict):
    n = len(q["X"])
    return qmat.add(qmat.sub(qmat.commutator(q["X"], q["Y"]), qmat.mul(q["i"], q["j"])),
                    qmat.identity(n))


def _quadruple(data: dict) -> dict:
    return {k: qmat.from_json(data[k]) for k in ("X", "Y", "i", "j")}


def _word_invariants(q: dict, max_len: int) -> dict[str, Fraction]:
    n = len(q["X"])
    prods = {"": qmat.identity(n)}
    for length in range(1, max_len + 1):
        for word in product("XY", repeat=length):
            w = "".join(word)
            prods[w] = qmat.mul(prods[w[:-1]], q[w[-1]])
    out = {f"tr({w})": qmat.trace(m) for w, m in prods.items() if w}
    for w, m in prods.items():
        out[f"j·{w}·i" if w else "j·i"] = qmat.trace(qmat.mul(qmat.mul(q["j"], m), q["i"]))
    return out


def _check_fiber(req: Request, res: dict) -> None:
    X, i, n = req.expect["X"], req.expect["i"], req.n
    _require(res["feasible"] is True, "fiber reported empty")
    y, j = qmat.from_json(res["particular"]["Y"]), qmat.from_json(res["particular"]["j"])
    _require(qmat.is_zero(_cm_residual({"X": X, "Y": y, "i": i, "j": j})),
             "particular (Y, j) has a nonzero CM residual")
    kernel = res["kernel_basis"]
    _require(res["kernel_dim"] == n == len(kernel), f"kernel_dim {res['kernel_dim']} != n = {n}")
    vectors = []
    for k, pair in enumerate(kernel):
        yk, jk = qmat.from_json(pair["Y"]), qmat.from_json(pair["j"])
        _require(qmat.is_zero(qmat.sub(qmat.commutator(X, yk), qmat.mul(i, jk))),
                 f"kernel pair {k} violates [X, Y'] = i j'")
        vectors.append([x for row in yk + jk for x in row])
    _require(qmat.rank(vectors) == n, "kernel pairs are linearly dependent")


def _check_classify(req: Request, res: dict) -> None:
    exp = req.expect
    for key in ("end_dim", "indecomposable", "in_cm_support", "fiber_dim", "framing_surjective"):
        _require(res[key] == exp[key], f"{key} = {res[key]!r}, expected {exp[key]!r}")
    support = sorted((tuple(Fraction(c) for c in f["coeffs"]), f["multiplicity"])
                     for f in res["support"])
    _require(support == exp["support"], "support differs from the factors X was built with")


def _check_cech(req: Request, res: dict) -> None:
    t = req.expect["twist"]
    expected = (t + 1, 0) if t >= -1 else (0, -1 - t)
    _require((res["h0_rank"], res["h1_rank"]) == expected,
             f"ranks {(res['h0_rank'], res['h1_rank'])} != closed form {expected}")
    _require(res["certified"] is True, "ranks not certified")


def _check_hilbert(req: Request, res: dict) -> None:
    n, points = req.n, req.expect["points"]
    _require(res["quotient_dim"] == n, f"quotient_dim {res['quotient_dim']} != n = {n}")
    d = res["degree_bound"]
    _require(d == n, f"degree_bound {d} != n")
    basis = res["ideal_basis"]
    _require(len(basis) == (d + 1) * (d + 2) // 2 - n, "ideal basis has the wrong size")
    monomials = sorted({(a, b) for poly in basis for a, b, _ in poly["terms"]})
    rows = []
    for k, poly in enumerate(basis):
        coeffs = {(a, b): Fraction(c) for a, b, c in poly["terms"]}
        for x, y in points:
            _require(sum(c * x**a * y**b for (a, b), c in coeffs.items()) == 0,
                     f"ideal generator {k} does not vanish at ({x}, {y})")
        rows.append([coeffs.get(m, Fraction(0)) for m in monomials])
    _require(qmat.rank(rows) == len(basis), "ideal generators are linearly dependent")


def _check_quadruple_out(req: Request, res: dict) -> None:
    got = _quadruple(res["quadruple"])
    _require(got == req.expect["quadruple"], "quadruple differs from the expected CM point")


def _check_homotopy(req: Request, res: dict) -> None:
    t, exp = res["triple"], req.expect
    _require(qmat.from_json(t["X"]) == exp["X"] and qmat.from_json(t["i"]) == exp["i"],
             "homotopy changed X or i")
    _require(qmat.from_json(t["Y"]) == exp["Y"], "Y differs from Y + sum X^k i h_k")
    _require([qmat.from_json(c) for c in t["j"]["coeffs"]] == exp["coeffs"],
             "j(x) differs from j + x h(x) - h(x) X")


def _check_verify(req: Request, res: dict) -> None:
    q = req.expect["q"]
    std = qmat.add(qmat.commutator(q["X"], q["Y"]), qmat.mul(q["i"], q["j"]))
    if req.command == "moment":
        _require(qmat.from_json(res["value"]) == std, "moment_std differs from [X, Y] + i j")
        _require(res["is_zero"] is qmat.is_zero(std), "is_zero is wrong")
        return
    _require(res["is_cm_point"] is True, "CM point not recognised")
    _require(qmat.is_zero(qmat.from_json(res["cm_residual"])), "cm_residual is nonzero")
    _require(qmat.from_json(res["moment_std"]) == std, "moment_std differs from [X, Y] + i j")


class Checker:
    def __init__(self) -> None:
        self._verdicts: dict[tuple[int, int, str], str | None] = {}
        self._invariants: dict[int, dict[str, Fraction]] = {}

    def check(self, req: Request, code: int, out: str) -> str | None:
        key = (id(req), code, out)
        if key not in self._verdicts:
            try:
                self._check(req, code, out)
                self._verdicts[key] = None
            except CheckFailed as exc:
                self._verdicts[key] = str(exc)
            except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
                self._verdicts[key] = f"malformed report: {type(exc).__name__}: {exc}"
        return self._verdicts[key]

    def _check(self, req: Request, code: int, out: str) -> None:
        lines = out.splitlines()
        _require(len(lines) == 1, f"expected one report line, got {len(lines)}")
        report = json.loads(lines[0])
        expected_code = req.expect.get("code", 0)
        _require(code == expected_code, f"exit code {code}, expected {expected_code}")
        _require(report["status"] == STATUS[expected_code], f"status {report['status']!r}")
        _require(report["command"] == req.command, f"command {report['command']!r}")
        res = report["result"]
        if req.command == "invariants":
            self._check_invariants(req, res)
        else:
            _CHECKS[req.command](req, res)

    def _check_invariants(self, req: Request, res: dict) -> None:
        if id(req) not in self._invariants:
            self._invariants[id(req)] = _word_invariants(req.expect["base"], req.expect["max_len"])
        expected = self._invariants[id(req)]
        got = {label: Fraction(v) for label, v in res["invariants"]}
        _require(len(got) == len(res["invariants"]), "duplicate invariant labels")
        _require(got == expected, "invariants differ from those of the unconjugated point")
        _require(got["j·i"] == req.n, f"j·i = {got['j·i']} != n = {req.n}")


_CHECKS = {
    "fiber-solve": _check_fiber,
    "classify": _check_classify,
    "cech": _check_cech,
    "hilbert-ideal": _check_hilbert,
    "normalize": _check_quadruple_out,
    "sample": _check_quadruple_out,
    "homotopy": _check_homotopy,
    "verify": _check_verify,
    "moment": _check_verify,
}
