from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cmkit
from cmkit.cli import main
from cmkit.serialize import quadruple_from_json, quadruple_to_json
from cmkit import moduli, sample_cm


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


def test_corrupted_end_basis_is_internal_error(capsys, monkeypatch):
    kernel_basis = moduli.kernel_basis

    def corrupted(a):
        basis = kernel_basis(a)
        v = basis[0]
        # shift s, the last unknown: g i = i s then fails since i != 0
        basis[0] = cmkit.Matrix(v.rows, v.cols, v.entries[:-1] + (v.entries[-1] + 1,), v.field)
        return basis

    monkeypatch.setattr(moduli, "kernel_basis", corrupted)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(json.dumps(SCALAR_SHEAF).encode()), encoding="utf-8"))
    code = main(["classify"])
    captured = capsys.readouterr()
    [rep] = [json.loads(line) for line in captured.out.splitlines()]
    assert code == 2 and rep["status"] == "error" and rep["result"] is None
    assert rep["messages"] == ["internal error: AssertionError: endomorphism basis element fails g X = X g or g i = i s"]
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


def test_cech_cutoff_too_small_is_error(capsys, monkeypatch):
    code, [rep] = _run(["cech", "--twist", "-4", "--cutoff", "3"], "", capsys, monkeypatch)
    assert code == 2 and rep["status"] == "error"


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
# complex field for every command that reads an input except classify, whose
# np.roots digits may differ between numpy versions.  Each line holds the
# argv, the stdin document, the ``--h`` document of homotopy, and the exit
# code and stdout recorded before the monomial printers were merged into
# linalg.format_terms.
_GOLDEN = [json.loads(line) for line in
           (Path(__file__).parent / "data" / "golden_reports.jsonl").read_text(encoding="utf-8").splitlines()]


def _golden_id(case) -> str:
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
    # the golden complex verify document passes at 1e-9; its residual entries reach about 1e-14
    [case] = [c for c in _GOLDEN if c["argv"] == ["verify"] and json.loads(c["input"])["field"] == "complex"]
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


_TRIPLE = {"n": 1, "r": 1, "field": "rational", "X": [["0"]], "i": [["1"]], "Y": [["0"]], "j": {"coeffs": [[["1"]]]}}

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
