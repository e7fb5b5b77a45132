from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cmkit
from cmkit.cli import _build_parser, _cmd_hilbert_ideal, main
from cmkit.serialize import quadruple_from_json, quadruple_to_json, scalar_to_json
from cmkit import CMQuadruple, Matrix, adhm, complex_field, conjugate, moduli, sample_cm
from test_adhm import _commuting_stable_pairs


FLAGSHIP = {
    "n": 2,
    "r": 1,
    "field": "rational",
    "X": [["0", "0"], ["0", "1"]],
    "Y": [["0", "-1"], ["1", "0"]],
    "i": [["1"], ["1"]],
    "j": [["1", "1"]],
}


# Commuting stable data with j = 0: the two points (0, 0) and (1, 0).
COMMUTING_PAIR = {
    "n": 2,
    "r": 1,
    "field": "rational",
    "X": [["0", "0"], ["0", "1"]],
    "Y": [["0", "0"], ["0", "0"]],
    "i": [["1"], ["1"]],
    "j": [["0", "0"]],
}


def _run(argv, stdin_text="", capsys=None, monkeypatch=None):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin_text.encode()), encoding="utf-8"))
    code = main(argv)
    out = capsys.readouterr().out
    reports = [json.loads(line) for line in out.splitlines() if line.strip()]
    return code, reports


def test_verify_flagship(capsys, monkeypatch):
    code, [rep] = _run(["verify"], json.dumps(FLAGSHIP), capsys, monkeypatch)
    assert code == 0
    assert rep["status"] == "ok"
    assert rep["result"]["is_cm_point"] is True
    assert rep["result"]["cm_residual"] == [["0", "0"], ["0", "0"]]
    assert rep["input_digest"].startswith("sha256:")


def test_verify_non_cm_exit_one(capsys, monkeypatch):
    bad = dict(FLAGSHIP, j=[["2", "2"]])
    code, [rep] = _run(["verify"], json.dumps(bad), capsys, monkeypatch)
    assert code == 1
    assert rep["status"] == "infeasible"
    assert rep["result"]["is_cm_point"] is False


def test_moment_conventions(capsys, monkeypatch):
    code, [rep] = _run(["moment", "--convention", "cm"], json.dumps(FLAGSHIP), capsys, monkeypatch)
    assert code == 0 and rep["result"]["is_zero"] is True
    code, [rep] = _run(["moment", "--convention", "std"], json.dumps(FLAGSHIP), capsys, monkeypatch)
    assert code == 0 and rep["result"]["is_zero"] is False


def test_invariants(capsys, monkeypatch):
    code, [rep] = _run(["invariants", "--max-len", "2"], json.dumps(FLAGSHIP), capsys, monkeypatch)
    assert code == 0
    inv = dict((k, v) for k, v in rep["result"]["invariants"])
    assert inv["tr(X)"] == "1" and inv["j·i"] == "2"


def test_hilbert_ideal_command(capsys, monkeypatch):
    code, [rep] = _run(["hilbert-ideal", "--degree", "2"], json.dumps(COMMUTING_PAIR), capsys, monkeypatch)
    assert code == 0
    assert rep["result"]["quotient_dim"] == 2
    assert any(entry["pretty"] == "y" for entry in rep["result"]["ideal_basis"])


def _hilbert_report_and_reference(q: CMQuadruple, degree: int | None) -> tuple[list, list]:
    """The ideal basis the hilbert-ideal command reports for q, and each generator printed by
    scalar_to_json and poly_str from hilbert_ideal."""
    argv = ["hilbert-ideal"] + ([] if degree is None else ["--degree", str(degree)])
    result, code, _ = _cmd_hilbert_ideal(quadruple_to_json(q), _build_parser().parse_args(argv))
    assert code == 0
    basis = adhm.hilbert_ideal(q, degree).basis
    if q.field.is_rational:  # the command prints the reduced pairs of adhm._hilbert_terms
        assert [[c for _, c in poly] for poly in adhm._hilbert_terms(q, degree).basis] == [
            [(c.numerator, c.denominator) for _, c in poly] for poly in basis]
    expected = [{"terms": [[a, b, scalar_to_json(c, q.field)] for (a, b), c in sorted(poly)],
                 "pretty": adhm.poly_str(poly)} for poly in basis]
    return result["ideal_basis"], expected


@settings(max_examples=40, deadline=None)
@given(_commuting_stable_pairs(), st.sampled_from([None, 0, 1, 2, 6, "n-1", "n", "n+2"]))
def test_hilbert_ideal_report_prints_what_poly_str_and_scalar_to_json_print(q, degree):
    # a rational coefficient prints as str(Fraction): sign on the numerator, no "/1"
    degree = {"n-1": q.n - 1, "n": q.n, "n+2": q.n + 2}.get(degree, degree)
    got, expected = _hilbert_report_and_reference(q, degree)
    assert got == expected


@pytest.mark.parametrize("degree", [None, 2, 4])
def test_complex_hilbert_ideal_report_prints_what_poly_str_and_scalar_to_json_print(degree):
    cf = complex_field()
    X = Matrix.from_rows([[1 + 1j, 0, 0], [0, -2j, 0], [0, 0, 0.5]], cf)
    Y = Matrix.from_rows([[2, 0, 0], [0, 1 - 1j, 0], [0, 0, -1 + 0.25j]], cf)
    g = Matrix.from_rows([[1, 0.5j, 2], [-1, 1, 0.25], [0.5, -1j, 1]], cf)
    q = conjugate(CMQuadruple(X, Y, Matrix.column([1, 1, 1], cf), Matrix.zeros(1, 3, cf)), g)
    got, expected = _hilbert_report_and_reference(q, degree)
    assert got == expected and got  # a nonempty report, with float coefficients of leading 1+0j


def test_hilbert_ideal_precondition_is_error(capsys, monkeypatch):
    code, [rep] = _run(["hilbert-ideal"], json.dumps(FLAGSHIP), capsys, monkeypatch)
    assert code == 2 and rep["status"] == "error"


def test_sample_reproducible_bytes(capsys, monkeypatch):
    code1, [rep1] = _run(["sample", "--n", "3", "--seed", "9"], "", capsys, monkeypatch)
    code2, [rep2] = _run(["sample", "--n", "3", "--seed", "9"], "", capsys, monkeypatch)
    assert code1 == code2 == 0
    assert rep1 == rep2
    q = quadruple_from_json(rep1["result"]["quadruple"])
    assert q == sample_cm(3, 9)


def test_emitted_quadruple_reparses_equal(capsys, monkeypatch):
    q = sample_cm(4, 123)
    code, [rep] = _run(["verify"], json.dumps(quadruple_to_json(q)), capsys, monkeypatch)
    assert code == 0 and rep["result"]["is_cm_point"] is True


def test_normalize_and_homotopy_commands(tmp_path, capsys, monkeypatch):
    triple = {
        "n": 1,
        "r": 1,
        "field": "rational",
        "X": [["0"]],
        "i": [["1"]],
        "Y": [["3"]],
        "j": {"coeffs": [[["1"]], [["3"]]]},
    }
    code, [rep] = _run(["normalize"], json.dumps(triple), capsys, monkeypatch)
    assert code == 0
    assert rep["result"]["quadruple"]["Y"] == [["0"]]
    assert rep["result"]["quadruple"]["j"] == [["1"]]

    hfile = tmp_path / "h.json"
    hfile.write_text(json.dumps({"coeffs": [[["3"]]]}))
    base = dict(triple, Y=[["0"]], j={"coeffs": [[["1"]]]})
    code, [rep] = _run(["homotopy", "--h", str(hfile)], json.dumps(base), capsys, monkeypatch)
    assert code == 0
    assert rep["result"]["triple"]["Y"] == [["3"]]
    assert rep["result"]["triple"]["j"]["coeffs"] == [[["1"]], [["3"]]]


def test_fiber_solve_feasible_and_infeasible(capsys, monkeypatch):
    sheaf = {"n": 2, "r": 1, "field": "rational", "X": [["0", "1"], ["0", "0"]], "i": [["0"], ["1"]]}
    code, [rep] = _run(["fiber-solve"], json.dumps(sheaf), capsys, monkeypatch)
    assert code == 0
    assert rep["result"]["feasible"] is True and rep["result"]["kernel_dim"] == 2

    bad = {"n": 2, "r": 1, "field": "rational", "X": [["1", "0"], ["0", "1"]], "i": [["1"], ["0"]]}
    code, [rep] = _run(["fiber-solve"], json.dumps(bad), capsys, monkeypatch)
    assert code == 1 and rep["status"] == "infeasible" and rep["result"]["feasible"] is False


def test_classify_command(capsys, monkeypatch):
    sheaf = {"n": 2, "r": 1, "field": "rational", "X": [["0", "1"], ["0", "0"]], "i": [["1"], ["0"]]}
    code, [rep] = _run(["classify"], json.dumps(sheaf), capsys, monkeypatch)
    assert code == 0
    res = rep["result"]
    assert res["indecomposable"] is True
    assert res["in_cm_support"] is True
    assert res["framing_surjective"] is False
    assert res["support"] == [{"factor": "x", "coeffs": ["0", "1"], "multiplicity": 2}]


def test_rational_classify_imports_neither_sympy_nor_numpy(tmp_path):
    # X is the companion matrix of x^3 - 2, irreducible over Q, so every step of the factorizer runs
    sheaf = {"n": 3, "r": 1, "field": "rational", "X": [["0", "0", "2"], ["1", "0", "0"], ["0", "1", "0"]],
             "i": [["1"], ["0"], ["0"]]}
    path = tmp_path / "sheaf.json"
    path.write_text(json.dumps(sheaf))
    script = (
        "import sys\n"
        "from cmkit.cli import main\n"
        "code = main(['classify', '--input', sys.argv[1]])\n"
        "print(sorted(m for m in ('sympy', 'numpy') if m in sys.modules), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    src = str(Path(cmkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, str(path)], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "[]"
    assert json.loads(proc.stdout)["result"]["support"] == [
        {"factor": "x^3 - 2", "coeffs": ["-2", "0", "0", "1"], "multiplicity": 1}
    ]


# The cmkit modules a cold process loads for each command; none of them loads
# ``dataclasses``.  The CLI module itself runs as __main__, as under
# ``python -m cmkit.cli``, so it is not one of them.
# Of the commands that load ``koszul``, only normalize, which returns a
# CMQuadruple, loads ``adhm`` too.
_BASE_MODULES = {"cmkit", "cmkit.linalg", "cmkit.serialize"}
_CECH_MODULES = _BASE_MODULES | {"cmkit.weyl"}
_ADHM_MODULES = _BASE_MODULES | {"cmkit.adhm"}
_KOSZUL_MODULES = _BASE_MODULES | {"cmkit.koszul"}
_MODULI_MODULES = _KOSZUL_MODULES | {"cmkit.moduli", "cmkit.factor"}
_SMALL_TRIPLE = {"n": 1, "r": 1, "field": "rational", "X": [["0"]], "i": [["1"]], "Y": [["3"]],
                 "j": {"coeffs": [[["1"]], [["3"]]]}}
_SMALL_SHEAF = {"n": 2, "r": 1, "field": "rational", "X": [["0", "1"], ["0", "0"]], "i": [["1"], ["0"]]}
_COLD_COMMANDS = [
    (["verify"], FLAGSHIP, _ADHM_MODULES),
    (["moment"], FLAGSHIP, _ADHM_MODULES),
    (["invariants"], FLAGSHIP, _ADHM_MODULES),
    (["hilbert-ideal"], COMMUTING_PAIR, _ADHM_MODULES),
    (["sample", "--n", "3", "--seed", "1"], None, _ADHM_MODULES),
    (["normalize"], _SMALL_TRIPLE, _KOSZUL_MODULES | {"cmkit.adhm"}),
    (["homotopy", "--h", "H_FILE"], _SMALL_TRIPLE, _KOSZUL_MODULES),
    (["fiber-solve"], _SMALL_SHEAF, _KOSZUL_MODULES),
    (["classify"], _SMALL_SHEAF, _MODULI_MODULES),
    (["cech", "--twist", "2", "--cutoff", "6"], None, _CECH_MODULES),
]


@pytest.mark.parametrize("argv, doc, modules", _COLD_COMMANDS, ids=[c[0][0] for c in _COLD_COMMANDS])
def test_cold_command_loads_only_its_modules(argv, doc, modules, tmp_path):
    hfile, listing = tmp_path / "h.json", tmp_path / "modules.txt"
    hfile.write_text(json.dumps({"coeffs": [[["3"]]]}))
    src = str(Path(cmkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    args = [str(hfile) if a == "H_FILE" else a for a in argv]
    proc = subprocess.run([sys.executable, str(Path(__file__).parent / "cold_modules.py"), str(listing), *args],
                          input=json.dumps(doc) if doc else "", env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(listing.read_text(encoding="utf-8").split()) == modules  # "dataclasses" would be one more


# X = 2 I_3 with r = 1: End has a semisimple part of dimension > 1 and the CM fiber is empty (exit 1)
SCALAR_SHEAF = {"n": 3, "r": 1, "field": "rational",
                "X": [["2", "0", "0"], ["0", "2", "0"], ["0", "0", "2"]], "i": [["1"], ["0"], ["0"]]}


def test_classify_factors_support_once(capsys, monkeypatch):
    calls = []
    support = moduli.support

    def counted(fs):
        calls.append(fs)
        return support(fs)

    monkeypatch.setattr(moduli, "support", counted)
    code, [rep] = _run(["classify"], json.dumps(SCALAR_SHEAF), capsys, monkeypatch)
    assert code == 1 and rep["result"]["indecomposable"] is False
    assert len(calls) == 1


# The companion matrix of x^3 - 2 and its cyclic vector e_1, conjugated by a unit upper triangular matrix.
CYCLIC_SHEAF = {"n": 3, "r": 1, "field": "rational",
                "X": [["1", "-1", "1"], ["1", "-2", "-2"], ["0", "1", "1"]], "i": [["1"], ["0"], ["0"]]}


def test_classify_rank_one_closes_the_framing_once(capsys, monkeypatch):
    calls = []
    closure_rank = moduli._closure_rank

    def counted(seeds, operators):
        calls.append(seeds)
        return closure_rank(seeds, operators)

    monkeypatch.setattr(moduli, "_closure_rank", counted)
    code, [rep] = _run(["classify"], json.dumps(CYCLIC_SHEAF), capsys, monkeypatch)
    assert code == 0 and rep["result"]["framing_surjective"] is True
    assert rep["result"]["end_dim"] == 1 and rep["result"]["fiber_dim"] == 3
    assert len(calls) == 1


def test_classify_dense_n16_budget(capsys, monkeypatch):
    import random
    import time

    from conftest import rand_invertible
    from cmkit import FramedTorsionSheaf, conjugate
    from cmkit.serialize import write_document

    q = conjugate(sample_cm(16, 16), rand_invertible(random.Random(1016), 16))
    doc = json.dumps(write_document(FramedTorsionSheaf(q.X, q.i)))
    t0 = time.monotonic()
    code, [rep] = _run(["classify"], doc, capsys, monkeypatch)
    elapsed = time.monotonic() - t0
    assert code == 0 and rep["result"]["end_dim"] == 1 and rep["result"]["fiber_dim"] == 16
    assert elapsed < 5.0, f"runtime budget exceeded: {elapsed:.2f}s"


def test_unexpected_exception_is_one_error_report_per_line(capsys, monkeypatch):
    def broken(fs):
        raise AssertionError("support factors do not multiply back to char_poly(X)")

    monkeypatch.setattr(moduli, "support", broken)
    lines = [json.dumps(SCALAR_SHEAF), json.dumps(SCALAR_SHEAF)]
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO("\n".join(lines).encode()), encoding="utf-8"))
    code = main(["classify", "--batch"])
    captured = capsys.readouterr()
    reports = [json.loads(line) for line in captured.out.splitlines()]
    assert code == 2 and len(reports) == 2
    for rep in reports:
        assert rep["status"] == "error" and rep["result"] is None
        assert rep["messages"][0].startswith("internal error:")
    assert "Traceback" not in captured.err


# X = diag(1, 1, 2) with i = e_1 + e_3 spans a plane only, so classify builds the End system.
_SPLIT_SHEAF = {"n": 3, "r": 1, "field": "rational",
                "X": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "2"]], "i": [["1"], ["0"], ["1"]]}


def test_corrupted_end_basis_is_internal_error(capsys, monkeypatch):
    kernel_pairs = moduli._kernel_pairs
    for sheaf, unknown in [
        (SCALAR_SHEAF, -1),  # s, the last unknown: g i = i s fails since i != 0
        (SCALAR_SHEAF, 0),  # g[0, 0]: g i = i s fails, as i = e_1
        (_SPLIT_SHEAF, 5),  # g[2, 1]: g X = X g fails, as X[2, 2] != X[1, 1], and g i = i s holds, as i[1] = 0
    ]:
        def corrupted(*args):
            basis = kernel_pairs(*args)
            p, q = basis[0][unknown]
            basis[0][unknown] = (p + q, q)
            return basis

        monkeypatch.setattr(moduli, "_kernel_pairs", corrupted)
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(json.dumps(sheaf).encode()), encoding="utf-8"))
        code = main(["classify"])
        captured = capsys.readouterr()
        [rep] = [json.loads(line) for line in captured.out.splitlines()]
        assert code == 2 and rep["status"] == "error" and rep["result"] is None
        assert rep["messages"] == [
            "internal error: AssertionError: endomorphism basis element fails g X = X g or g i = i s"]
        assert "Traceback" not in captured.err


def test_cached_parser_matches_fresh_processes(capsys, monkeypatch):
    # no "field" key, so --field decides; integer entries parse in both fields
    sheaf = json.dumps({"n": 2, "r": 1, "X": [[0, 1], [0, 0]], "i": [[1], [0]]})
    argvs = [["classify", "--field", "complex"], ["classify"], ["cech", "--twist", "1", "--cutoff", "6"],
             ["classify", "--tolerance", "-1"]]
    src = str(Path(cmkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv in argvs:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(sheaf.encode()), encoding="utf-8"))
        code = main(argv)
        out = capsys.readouterr().out
        proc = subprocess.run([sys.executable, "-m", "cmkit.cli", *argv], input=sheaf, env=env,
                              capture_output=True, text=True, timeout=60)
        assert (code, out) == (proc.returncode, proc.stdout), argv
    assert code == 2 and json.loads(out)["messages"][0].startswith("tolerance:")


def test_cech_command_known_value(capsys, monkeypatch):
    code, [rep] = _run(["cech", "--twist", "-2", "--cutoff", "6"], "", capsys, monkeypatch)
    assert code == 0
    assert rep["result"] == {"twist": -2, "h0_rank": 0, "h1_rank": 1, "certified": True}
    # the digest of a command line that gives --cutoff, recorded while --cutoff was required
    assert rep["input_digest"] == "sha256:6bc8d6fb4f962268dd0a6fcb93c32c0e34d2f06f584f3b3939ffd753ee4967ae"


def test_cech_without_cutoff_gives_the_ranks_of_any_valid_cutoff(capsys, monkeypatch):
    for twist in (-3, -1, 0, 2):
        code, [rep] = _run(["cech", "--twist", str(twist)], "", capsys, monkeypatch)
        _, [given] = _run(["cech", "--twist", str(twist), "--cutoff", str(abs(twist) + 2)], "", capsys, monkeypatch)
        assert code == 0 and rep["status"] == "ok" and rep["messages"] == []
        assert rep["result"] == given["result"]


def test_cech_cutoff_too_small_is_error(capsys, monkeypatch):
    code, [rep] = _run(["cech", "--twist", "-4", "--cutoff", "3"], "", capsys, monkeypatch)
    assert code == 2 and rep["status"] == "error"
    assert rep["messages"] == ["cutoff 3 names a window no wider than |twist| = 4; need >= 6"]


def test_malformed_json_exit_two(capsys, monkeypatch):
    code, [rep] = _run(["verify"], "this is not json", capsys, monkeypatch)
    assert code == 2 and rep["status"] == "error"


def test_schema_violation_reports_path(capsys, monkeypatch):
    bad = dict(FLAGSHIP, X=[["0", "0"]])
    code, [rep] = _run(["verify"], json.dumps(bad), capsys, monkeypatch)
    assert code == 2
    assert any("X" in m for m in rep["messages"])


def test_batch_mode_order_and_exit(capsys, monkeypatch):
    lines = [
        json.dumps(FLAGSHIP),
        json.dumps(dict(FLAGSHIP, j=[["2", "2"]])),
        json.dumps(FLAGSHIP),
    ]
    code, reps = _run(["verify", "--batch"], "\n".join(lines) + "\n", capsys, monkeypatch)
    assert code == 1  # worst status wins: ok, infeasible, ok
    assert [r["status"] for r in reps] == ["ok", "infeasible", "ok"]


def test_batch_mode_error_dominates(capsys, monkeypatch):
    lines = [json.dumps(FLAGSHIP), "broken"]
    code, reps = _run(["verify", "--batch"], "\n".join(lines), capsys, monkeypatch)
    assert code == 2
    assert [r["status"] for r in reps] == ["ok", "error"]


def test_field_flag_sets_default(capsys, monkeypatch):
    payload = {
        "n": 1,
        "r": 1,
        "X": [[[0.0, 0.0]]],
        "Y": [[[0.0, 0.0]]],
        "i": [[[1.0, 0.0]]],
        "j": [[[1.0, 0.0]]],
    }
    code, [rep] = _run(
        ["verify", "--field", "complex", "--tolerance", "1e-8"],
        json.dumps(payload),
        capsys,
        monkeypatch,
    )
    assert code == 0 and rep["result"]["is_cm_point"] is True
    assert rep["result"]["cm_residual"] == [[[0.0, 0.0]]]


def test_explicit_field_key_wins_over_flag(capsys, monkeypatch):
    code, [rep] = _run(["verify", "--field", "complex"], json.dumps(FLAGSHIP), capsys, monkeypatch)
    assert code == 0 and rep["result"]["cm_residual"] == [["0", "0"], ["0", "0"]]


def test_classify_float_mode_is_inconclusive(capsys, monkeypatch):
    sheaf = {
        "n": 1,
        "r": 1,
        "field": "complex",
        "tolerance": 1e-8,
        "X": [[[0.5, 0.0]]],
        "i": [[[1.0, 0.0]]],
    }
    code, [rep] = _run(["classify"], json.dumps(sheaf), capsys, monkeypatch)
    assert code == 0
    assert rep["result"]["indecomposable"] == "inconclusive"
    [entry] = rep["result"]["support"]
    assert abs(entry["root"][0] - 0.5) < 1e-6 and entry["multiplicity"] == 1


def test_input_file_flag(tmp_path, capsys, monkeypatch):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(FLAGSHIP))
    code, [rep] = _run(["verify", "--input", str(path)], "", capsys, monkeypatch)
    assert code == 0 and rep["result"]["is_cm_point"] is True


def test_missing_input_file_is_error(tmp_path, capsys, monkeypatch):
    code, [rep] = _run(["classify", "--input", str(tmp_path / "missing.json")], "", capsys, monkeypatch)
    assert code == 2 and rep["status"] == "error" and rep["result"] is None
    assert rep["command"] == "classify" and rep["messages"][0].startswith("cannot read input:")


def test_missing_h_file_is_named_in_the_report(tmp_path, capsys, monkeypatch):
    missing = tmp_path / "missing.json"
    code, [rep] = _run(["homotopy", "--h", str(missing)], json.dumps(_SMALL_TRIPLE), capsys, monkeypatch)
    assert code == 2 and rep["status"] == "error" and rep["result"] is None
    [message] = rep["messages"]
    assert message.startswith("cannot read --h file: ") and str(missing) in message


def test_uncertified_normal_form_is_internal_error(capsys, monkeypatch):
    from cmkit import koszul

    def wrong_y(kt, h):
        # j comes back constant, as normalize checks, but Y is off the CM locus: [X, E12] = -E12 here
        shift = cmkit.Matrix.from_rows([[0, 1], [0, 0]])
        return koszul.KoszulTriple(kt.X, kt.i, kt.Y + shift, koszul.PolyCovector.constant(kt.j.coeff(0)))

    monkeypatch.setattr(koszul, "apply_homotopy", wrong_y)
    triple = dict(FLAGSHIP, j={"coeffs": [FLAGSHIP["j"]]})
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(json.dumps(triple).encode()), encoding="utf-8"))
    code = main(["normalize"])
    captured = capsys.readouterr()
    [rep] = [json.loads(line) for line in captured.out.splitlines()]
    assert code == 2 and rep["status"] == "error" and rep["result"] is None
    assert rep["messages"] == ["internal error: AssertionError: normalized quadruple fails the CM relation"]
    assert "Traceback" not in captured.err


def test_batch_from_file(tmp_path, capsys, monkeypatch):
    path = tmp_path / "batch.ndjson"
    path.write_text(json.dumps(FLAGSHIP) + "\n" + json.dumps(FLAGSHIP) + "\n")
    code, reps = _run(["verify", "--input", str(path), "--batch"], "", capsys, monkeypatch)
    assert code == 0 and len(reps) == 2


def test_sample_invalid_size_is_error(capsys, monkeypatch):
    code, [rep] = _run(["sample", "--n", "0", "--seed", "1"], "", capsys, monkeypatch)
    assert code == 2 and rep["status"] == "error"


def test_hilbert_ideal_negative_degree_is_error(capsys, monkeypatch):
    code, [rep] = _run(["hilbert-ideal", "--degree", "-1"], json.dumps(COMMUTING_PAIR), capsys, monkeypatch)
    assert code == 2 and rep["status"] == "error" and rep["result"] is None


@pytest.mark.parametrize("tolerance", ["abc", -1, float("nan"), True, None])
def test_bad_tolerance_is_schema_error(tolerance, capsys, monkeypatch):
    sheaf = {"n": 1, "r": 1, "field": "complex", "tolerance": tolerance,
             "X": [[[0.5, 0.0]]], "i": [[[1.0, 0.0]]]}
    code, [rep] = _run(["fiber-solve"], json.dumps(sheaf), capsys, monkeypatch)
    assert code == 2 and rep["status"] == "error"
    assert rep["messages"][0].startswith("tolerance:")


@pytest.mark.parametrize("flag", ["-1", "nan"])
def test_bad_tolerance_flag_is_schema_error(flag, capsys, monkeypatch):
    code, [rep] = _run(["verify", "--field", "complex", "--tolerance", flag],
                       json.dumps({k: v for k, v in FLAGSHIP.items() if k != "field"}), capsys, monkeypatch)
    assert code == 2 and rep["messages"][0].startswith("tolerance:")


def test_invariants_max_len_above_cap_is_refused(capsys, monkeypatch):
    from cmkit.adhm import MAX_WORD_LEN

    argv = ["invariants", "--max-len", str(MAX_WORD_LEN + 1)]
    code, [rep] = _run(argv, json.dumps(FLAGSHIP), capsys, monkeypatch)
    assert code == 2 and rep["status"] == "error" and rep["result"] is None
    assert rep["messages"] == [f"max_len must be <= {MAX_WORD_LEN}, got {MAX_WORD_LEN + 1}"]


# One small report (n <= 4) per command in the rational field, and one in the
# complex field for every command that reads an input.  Each line holds the
# argv, the stdin document, the ``--h`` document of homotopy, and the exit
# code and stdout recorded before the monomial printers were merged into
# linalg.format_terms.  Lines with an "id" were recorded later, before
# endomorphisms answered cyclic rank-one framings without the End system:
# classify on dense conjugated cyclic sheaves (n = 6, 8), a scalar-X sheaf
# (exit 1), a surjective rank-two sheaf and a complex cyclic sheaf.  That one
# has a nilpotent X, whose roots np.roots gives exactly, in any numpy version.
# The last four were recorded before word_invariants split its long words and
# rational hilbert_ideal built each column from an earlier one: invariants up
# to length 7 (rational, r = 1) and 5 (rational r = 2, and complex), and
# hilbert-ideal at degree n + 2 on a conjugated rational pair.  The three
# after them were recorded before Yun's loop moved to the integers, rational
# roots were lifted by Newton's iteration and the rational closure rank took
# one pass: classify on a conjugated companion sheaf whose support mixes a
# repeated root, a root with denominator, the root 0 and x^2 - 2, on a
# non-cyclic r = 2 sheaf with the repeated factor (x - 1)^3, and on a dense
# conjugated n = 8 cyclic sheaf whose support splits over Q.  The last five
# were recorded before the reader parsed literals into integer forms and the
# writer printed from them: verify and fiber-solve on the non-canonical
# literals "2/4", "-0", "007", "0/5", "6/3" and JSON integers above 2^64, the
# refusal of "1/0", an empty fiber (exit 1) and a two-line verify --batch.  The
# last three were recorded before the rational RREF split into a forward pass
# and back substitution: fiber-solve on sample_cm(6, 6) conjugated by
# rand_invertible(Random(1006), 6), the same recipe at n = 5 with the r = 2
# framing [g i | (k mod 3) - 1], and classify on that framing at n = 6, whose
# End system runs through kernel_basis.  The last three were recorded before
# classify read End as one block of kernel rows: classify on scalar X = 3/2 I
# with r = 2 (exit 1), on a zero framing (i = 0, r = 2, X a Jordan block of 1
# beside -1/2; exit 1), and a complex r = 2 sheaf with nilpotent X.  The last
# two were recorded before the End system was built as integer rows straight
# from the integer forms of X and i: classify on a dense conjugated n = 4 sheaf
# with distinct eigenvalues and an r = 2 framing that spans an invariant plane
# only (X over 720, i over 18, so the two row blocks scale differently; exit 1),
# and on X = g diag(1, 1, 2, -3) g^-1 with r = 1 (exit 1).  The last four were
# recorded before char_poly, the rational words, the Hilbert-ideal terms and
# the End certificate moved onto integer lists: invariants --max-len 4 on
# sample_cm(6, 606) conjugated by rand_invertible(Random(1606), 6), the shape
# of the benchmark's invariants requests; a rational invariants --max-len 3
# with r = 2; hilbert-ideal at degree 3 on four conjugated points whose pivot
# rows have negative pivots and whose generators have negative fractional
# coefficients; and classify (exit 1) on a dense conjugated n = 5 sheaf with a
# non-cyclic framing, whose char_poly is (x - 1/2)^2 (x + 2) (x^2 + x + 3).
# The last three were recorded before cm_support_check read [S | t] off the
# rows of the End block with one elimination: classify on complex X = 2 I_3
# with i = [1, i, -1]^T (classify-complex-scalar-empty-fiber, exit 1, end_dim
# 7), on n = 1, X = [5/2], i = [0, 1/3, -2], whose S has 9 columns
# (classify-rational-n1-r3, fiber_dim 3), and on complex X = J_2(1) with
# i = [[0, 1, i], [0, 0, 0]] (classify-complex-jordan-r3, fiber_dim 7).
# The last two were recorded before the End rows and the fiber system were
# both written by one add_sandwich over row-major sequences: fiber-solve on
# complex X = g diag(1, 2i, -1 + i) g^-1 with g = [[1, i, 0], [2, 1, -1],
# [0, 1 - i, 1]] and i = [[1, i], [0, 2], [-1 + 2i, 1]], whose kernel basis
# pins float digits down to about 1e-17 (fiber-solve-complex-dense-r2), and
# classify on complex X = (1 + i) I_3 with r = 2, whose zero commutator rows
# the complex elimination keeps by position (classify-complex-scalar-r2,
# exit 1).  fiber-solve-complex-dense-r2 was recorded again when the complex
# elimination began to store a row update that cancels to round-off as 0:
# its 15 entries that read up to 1e-15 before read -0.0 now, and other
# entries moved by at most 2e-15.  The next three were recorded before the
# rational fiber and End equations went to the elimination last equation
# first: fiber-solve on a dense conjugated n = 7 sheaf, r = 1, whose X has
# the eigenvalues 21/2, 7, 2, -1, -5/2, -17/3 and -8
# (fiber-solve-rational-dense-n7); fiber-solve on a dense conjugate of
# diag(2, 2, 1, 1, 0, 0) with r = 1, whose fiber is empty
# (fiber-solve-rational-dense-n6-empty, exit 1); and classify on a dense
# conjugated n = 8 sheaf with eight distinct rational eigenvalues and an
# r = 2 framing that is not surjective
# (classify-rational-dense-n8-r2-nonsurjective, exit 1, end_dim 3).  The two
# after them were recorded before the rational elimination took every system
# last equation first and set its zero rows aside: classify on X = 2 I_5 with
# i = [1, -1/2, 0, 3, 2/3]^T (classify-rational-scalar-n5, exit 1,
# end_dim 21), and hilbert-ideal --degree 2 on a conjugated n = 5 commuting
# stable pair whose X has the eigenvalues 3, 2, 1, 1/2 and -1
# (hilbert-ideal-rational-commuting-n5-degree-2).  The last two were
# recorded before the rational back substitution finished each pivot row
# once, beyond the benchmark's n <= 7: fiber-solve on sample_cm(8, 8)
# conjugated by g = rand_invertible(Random(1008), 8), with r = 2 and the
# framing [g i | ((k mod 5) - 2) / (1 + k mod 3)]
# (fiber-solve-rational-dense-n8-r2),
# and classify (exit 1, end_dim 7) on X = g diag(-5/2, 1/3, 2, 2, 7, -1) g^-1,
# g = rand_invertible(Random(2006), 6), whose framing g [3/2 e_0 | -2/3 (e_0
# + e_2)] spans an invariant plane only, so End, the support check and the
# trace form all run (classify-rational-dense-n6-r2-nonsurjective).  The
# last was recorded before the rational elimination skipped the zeros of
# sparse systems (one column scan per pivot, _numerators over the nonzeros,
# the back pass from each pivot on): fiber-solve on the sheaf (X, i) of
# sample_cm(12, 12), diagonal X with r = 1, the largest size of the
# benchmark's diagonal fibers (fiber-solve-rational-diagonal-n12).  The last
# four were recorded before a complex Matrix became its entries over the
# scale 1, and they hold nonzero imaginary parts: the complex CM point of
# sample_cm(3, 3) with X scaled by 1 + 2i, Y by (1 + 2i)^-1 and j_k = 1 / i_k
# taken in complex arithmetic, which gives -0.0 imaginary parts where i_k < 0,
# through verify (verify-complex-scaled-cm) and moment --convention cm
# (moment-cm-complex-scaled-cm); homotopy of its triple by
# h = [1 - i, 0, 2i] + x [1/2 + i, -1, i], whose j(x) keeps a -0.0
# (homotopy-complex-scaled-cm-degree-1); and normalize of the triple that
# homotopy prints, whose j keeps it too (normalize-complex-scaled-cm-degree-2).
_GOLDEN =[json.loads(line) for line in
           (Path(__file__).parent / "data" / "golden_reports.jsonl").read_text(encoding="utf-8").splitlines()]


def _golden_id(case) -> str:
    if "id" in case:
        return case["id"]
    field = json.loads(case["input"])["field"] if case["input"] else "no-input"
    return f"{case['argv'][0]}-{field}"


@pytest.mark.parametrize("case", _GOLDEN, ids=[_golden_id(c) for c in _GOLDEN])
def test_golden_reports_byte_identical(case, tmp_path, capsys, monkeypatch):
    argv = list(case["argv"])
    if case["h"] is not None:
        path = tmp_path / "h.json"
        path.write_text(case["h"])
        argv += ["--h", str(path)]
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO((case["input"] or "").encode()), encoding="utf-8"))
    assert main(argv) == case["exit"]
    assert capsys.readouterr().out == case["stdout"]


def test_golden_replay_stops_at_once_when_cmkit_cannot_be_imported(tmp_path):
    """A broken ``cmkit`` first on ``PYTHONPATH`` makes ``replay_goldens.py`` exit 2 with one line naming the
    interpreter and ``PYTHONPATH``, before any golden line is replayed."""
    (tmp_path / "cmkit").mkdir()
    (tmp_path / "cmkit" / "__init__.py").write_text("raise ImportError('not cmkit')\n")
    proc = subprocess.run([sys.executable, str(Path(__file__).parent / "replay_goldens.py")],
                          env=dict(os.environ, PYTHONPATH=str(tmp_path)), capture_output=True, text=True, timeout=60)
    [line] = proc.stderr.splitlines()
    assert proc.returncode == 2 and proc.stdout == ""
    assert sys.executable in line and f"PYTHONPATH={tmp_path}" in line


def test_golden_replay_names_the_cmkit_it_imports(tmp_path):
    from replay_goldens import cmkit_file

    src = Path(cmkit.__file__).resolve().parents[1]
    assert Path(cmkit_file(tmp_path, dict(os.environ, PYTHONPATH=str(src)))).resolve() == Path(cmkit.__file__).resolve()


def _cli_process(argv, stdin: bytes):
    src = str(Path(cmkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "cmkit.cli", *argv], input=stdin, env=env,
                          capture_output=True, timeout=60)


# Bytes in no UTF encoding, and nesting deeper than the recursion limit.
_UNDECODABLE = [b'\xff\xfe{"n":1}', b"[" * 200000]


@pytest.mark.parametrize("raw", _UNDECODABLE, ids=["not-utf", "too-deep"])
def test_undecodable_input_is_one_invalid_json_report(raw):
    proc = _cli_process(["verify"], raw)
    [rep] = [json.loads(line) for line in proc.stdout.splitlines()]
    assert proc.returncode == 2 and rep["status"] == "error" and rep["result"] is None
    assert rep["messages"][0].startswith("invalid JSON: ")
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize("raw", _UNDECODABLE, ids=["not-utf", "too-deep"])
def test_undecodable_batch_line_does_not_stop_the_batch(raw):
    good = json.dumps(FLAGSHIP).encode()
    proc = _cli_process(["verify", "--batch"], b"\n".join([good, raw, good]) + b"\n")
    reps = [json.loads(line) for line in proc.stdout.splitlines()]
    assert proc.returncode == 2
    assert [r["status"] for r in reps] == ["ok", "error", "ok"]
    assert reps[1]["messages"][0].startswith("invalid JSON: ")
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize("raw", _UNDECODABLE, ids=["not-utf", "too-deep"])
def test_undecodable_h_file_is_one_invalid_json_report(raw, tmp_path):
    path = tmp_path / "h.json"
    path.write_bytes(raw)
    proc = _cli_process(["homotopy", "--h", str(path)], json.dumps(_TRIPLE).encode())
    [rep] = [json.loads(line) for line in proc.stdout.splitlines()]
    assert proc.returncode == 2 and rep["status"] == "error" and rep["result"] is None
    assert rep["messages"][0].startswith("invalid JSON: ")
    assert b"Traceback" not in proc.stderr


def test_tolerance_flag_zero_is_kept(capsys, monkeypatch):
    # the first golden complex verify document passes at 1e-9; its residual entries reach about 1e-14
    [case] = [c for c in _GOLDEN
              if c["argv"] == ["verify"] and json.loads(c["input"])["field"] == "complex" and "id" not in c]
    doc = json.loads(case["input"])
    del doc["field"]
    code, [rep] = _run(["verify", "--field", "complex", "--tolerance", "0"], json.dumps(doc), capsys, monkeypatch)
    assert code == 1 and rep["result"]["is_cm_point"] is False
    inline_code, [inline_rep] = _run(["verify"], json.dumps(dict(doc, field="complex", tolerance=0)), capsys, monkeypatch)
    assert (inline_code, inline_rep["result"]) == (code, rep["result"])


def test_sample_n_above_cap_is_refused(capsys, monkeypatch):
    from cmkit.adhm import MAX_SAMPLE_N

    code, [rep] = _run(["sample", "--n", str(MAX_SAMPLE_N + 1), "--seed", "1"], "", capsys, monkeypatch)
    assert code == 2 and rep["status"] == "error" and rep["result"] is None
    assert rep["messages"] == [f"n must be <= {MAX_SAMPLE_N}, got {MAX_SAMPLE_N + 1}"]


def test_hilbert_ideal_degree_above_cap_is_refused(capsys, monkeypatch):
    from cmkit.adhm import MAX_HILBERT_DEGREE

    argv = ["hilbert-ideal", "--degree", str(MAX_HILBERT_DEGREE + 1)]
    code, [rep] = _run(argv, json.dumps(COMMUTING_PAIR), capsys, monkeypatch)
    assert code == 2 and rep["status"] == "error" and rep["result"] is None
    assert rep["messages"] == [f"degree bound must be <= {MAX_HILBERT_DEGREE}, got {MAX_HILBERT_DEGREE + 1}"]


def test_hilbert_ideal_default_degree_above_cap_is_refused(capsys, monkeypatch):
    from cmkit.adhm import MAX_HILBERT_DEGREE

    # n distinct points on the x-axis: commuting and stable, so --degree 2 answers at once
    n = MAX_HILBERT_DEGREE + 1
    doc = dict(COMMUTING_PAIR, n=n, X=[[str(a) if a == b else "0" for b in range(n)] for a in range(n)],
               Y=[["0"] * n for _ in range(n)], i=[["1"] for _ in range(n)], j=[["0"] * n])
    code, [rep] = _run(["hilbert-ideal"], json.dumps(doc), capsys, monkeypatch)
    assert code == 2 and rep["status"] == "error" and rep["result"] is None
    assert rep["messages"] == [f"default degree bound n = {n} must be <= {MAX_HILBERT_DEGREE}: "
                               "pass a degree bound (--degree)"]
    code, [rep] = _run(["hilbert-ideal", "--degree", "2"], json.dumps(doc), capsys, monkeypatch)
    assert code == 0 and rep["result"]["quotient_dim"] == 3  # the span of i, X i, X^2 i


@pytest.mark.parametrize("command", ["fiber-solve", "classify"])
@pytest.mark.parametrize("key", ["n", "r"])
def test_sheaf_size_above_cap_is_refused_before_any_block_is_read(key, command, capsys, monkeypatch):
    from cmkit.serialize import SHEAF_CAPS

    cap = SHEAF_CAPS[key]
    doc = {"n": 1, "r": 1, "X": [["0"]], "i": [["1"]], key: cap + 1}
    code, [rep] = _run([command], json.dumps(doc), capsys, monkeypatch)
    assert code == 2 and rep["status"] == "error" and rep["result"] is None
    assert rep["messages"] == [f"{key}: must be <= {cap}, got {cap + 1}"]
    # at the cap the size passes, and the first block is read against it
    code, [rep] = _run([command], json.dumps(dict(doc, **{key: cap})), capsys, monkeypatch)
    shape = {"n": f"{cap}x{cap}", "r": f"1x{cap}"}[key]
    block = {"n": "X", "r": "i"}[key]
    assert code == 2 and rep["messages"][0].startswith(f"{block}: expected a {shape} matrix")


_TRIPLE = {"n": 1, "r": 1, "field": "rational", "X": [["0"]], "i": [["1"]], "Y": [["0"]], "j": {"coeffs": [[["1"]]]}}


@pytest.mark.parametrize("argv", [["verify"], ["moment"], ["invariants", "--max-len", "10"],
                                  ["hilbert-ideal", "--degree", "2"], ["normalize"], ["homotopy", "--h", "h.json"]],
                         ids=lambda argv: argv[0])
def test_quadruple_and_triple_n_above_cap_is_refused_before_any_block_is_read(argv, capsys, monkeypatch):
    from cmkit.adhm import MAX_SAMPLE_N
    from cmkit.serialize import QUADRUPLE_CAPS

    cap = QUADRUPLE_CAPS["n"]
    assert MAX_SAMPLE_N <= cap  # every point sample writes reads back
    doc = dict(_TRIPLE if argv[0] in ("normalize", "homotopy") else FLAGSHIP, n=cap + 1)
    code, [rep] = _run(argv, json.dumps(doc), capsys, monkeypatch)
    assert code == 2 and rep["status"] == "error" and rep["result"] is None
    assert rep["messages"] == [f"n: must be <= {cap}, got {cap + 1}"]

# One malformed document per kind of schema error, with the message recorded
# before the three document kinds were described by one table in serialize.
_MALFORMED = [
    ("missing-key", ["verify"], {k: v for k, v in FLAGSHIP.items() if k != "Y"}, None, "Y: missing field"),
    ("block-shape", ["verify"], dict(FLAGSHIP, i=[["1", "0"], ["1", "0"]]), None,
     "i: expected a 2x1 matrix, got 2x2"),
    ("ragged-row", ["verify"], dict(FLAGSHIP, X=[["0", "0"], ["0"]]), None,
     "X[1]: ragged row of length 1 (expected 2)"),
    ("bad-rational", ["verify"], dict(FLAGSHIP, Y=[["0", "oops"], ["1", "0"]]), None,
     "Y[0][1]: bad rational literal 'oops': Invalid literal for Fraction: 'oops'"),
    ("unknown-field", ["verify"], dict(FLAGSHIP, field="octonion"), None, "field: unknown field 'octonion'"),
    ("bad-tolerance", ["verify"], dict(FLAGSHIP, field="complex", tolerance=-1), None,
     "tolerance: expected a finite number >= 0, got -1"),
    ("boolean-n", ["verify"], dict(FLAGSHIP, n=True), None, "n: expected a positive integer"),
    ("not-an-object", ["verify"], [FLAGSHIP], None, ".: expected an object"),
    ("covector-shape", ["normalize"], dict(_TRIPLE, j={"coeffs": [[["1", "2"]]]}), None,
     "j.coeffs[0]: expected a 1x1 matrix, got 1x2"),
    ("bad-h", ["homotopy"], _TRIPLE, {"coeffs": [[["1"], ["2"]]]}, "h.coeffs[0]: expected a 1x1 matrix, got 2x1"),
    # a rational entry is -?digits(/digits)?: an exponent would ask for unbounded work
    ("exponent-rational", ["fiber-solve"], {"n": 1, "r": 1, "X": [["1e10000000"]], "i": [["1"]]}, None,
     "X[0][0]: bad rational literal '1e10000000': Invalid literal for Fraction: '1e10000000'"),
    ("decimal-rational", ["verify"], dict(FLAGSHIP, Y=[["0", "0.5"], ["1", "0"]]), None,
     "Y[0][1]: bad rational literal '0.5': Invalid literal for Fraction: '0.5'"),
    # a complex entry must fit a float, bare or as [re, im]
    ("complex-int-past-float-range", ["fiber-solve"], {"n": 1, "r": 1, "field": "complex", "X": [[10**400]],
                                                       "i": [[1]]}, None,
     "X[0][0]: int too large to convert to float"),
    ("complex-pair-past-float-range", ["fiber-solve"], {"n": 1, "r": 1, "field": "complex", "X": [[[10**400, 0]]],
                                                        "i": [[1]]}, None,
     "X[0][0]: int too large to convert to float"),
]


@pytest.mark.parametrize("argv, doc, h, message", [c[1:] for c in _MALFORMED], ids=[c[0] for c in _MALFORMED])
def test_malformed_document_reports(argv, doc, h, message, tmp_path, capsys, monkeypatch):
    if h is not None:
        path = tmp_path / "h.json"
        path.write_text(json.dumps(h))
        argv = [*argv, "--h", str(path)]
    code, [rep] = _run(argv, json.dumps(doc), capsys, monkeypatch)
    assert code == 2 and rep["status"] == "error" and rep["result"] is None
    assert rep["messages"] == [message]


def test_cech_huge_cutoff_is_constant_work(capsys, monkeypatch):
    # past sys.maxsize too: the answer is the closed form at any size
    cases = [(3, 10**12, 4, 0), (3, sys.maxsize * 4, 4, 0), (-(10**20), 10**20 + 2, 0, 10**20 - 1)]
    for twist, cutoff, h0, h1 in cases:
        code, [rep] = _run(["cech", "--twist", str(twist), "--cutoff", str(cutoff)], "", capsys, monkeypatch)
        assert code == 0 and rep["messages"] == []
        assert rep["result"] == {"twist": twist, "h0_rank": h0, "h1_rank": h1, "certified": True}


# --- fuzz: every command that reads a document answers with one report ---

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-4, 4) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)
_RATIONAL_ENTRY = st.one_of(
    st.integers(-3, 3),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-3, 3), st.integers(1, 3)),
)
_COMPLEX_ENTRY = st.one_of(st.integers(-3, 3), st.lists(st.integers(-3, 3), min_size=2, max_size=2))


@st.composite
def _documents(draw):
    """A small well-formed document with n, r <= 3 (j a matrix or a covector, so quadruple, triple
    and sheaf commands all read it), sometimes with one block replaced by arbitrary JSON."""
    n, r = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    field = draw(st.sampled_from(["rational", "complex"]))
    entry = _RATIONAL_ENTRY if field == "rational" else _COMPLEX_ENTRY

    def block(rows, cols):
        return [[draw(entry) for _ in range(cols)] for _ in range(rows)]

    doc = {"n": n, "r": r, "field": field, "X": block(n, n), "Y": block(n, n), "i": block(n, r)}
    if draw(st.booleans()):
        doc["j"] = block(r, n)
    else:
        doc["j"] = {"coeffs": [block(r, n) for _ in range(draw(st.integers(1, 2)))]}
    if draw(st.integers(0, 3)) == 0:
        doc[draw(st.sampled_from(sorted(doc)))] = draw(_JSON_VALUES)
    h = {"coeffs": [block(r, n) for _ in range(draw(st.integers(1, 2)))]}
    return doc, h


_DOCUMENT_COMMANDS = [
    ["verify"], ["moment", "--convention", "cm"], ["invariants", "--max-len", "2"], ["hilbert-ideal"],
    ["normalize"], ["homotopy", "--h", "H_FILE"], ["fiber-solve"], ["classify"],
]


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(_DOCUMENT_COMMANDS),
    st.one_of(_documents(), st.tuples(_JSON_VALUES, _JSON_VALUES)),
)
def test_fuzzed_documents_get_one_report_and_a_documented_exit(tmp_path_factory, argv, inputs):
    doc, h = inputs
    hfile = tmp_path_factory.getbasetemp() / "fuzz-h.json"
    hfile.write_text(json.dumps(h))
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(json.dumps(doc).encode()), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(hfile) if a == "H_FILE" else a for a in argv])
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2)
    [line] = out.getvalue().splitlines()
    report = json.loads(line)
    assert report["command"] == argv[0]
    assert report["status"] == {0: "ok", 1: "infeasible", 2: "error"}[code]
    assert "Traceback" not in err.getvalue()
