from __future__ import annotations

import random
from fractions import Fraction

import pytest

from cmkit import Matrix, PolyCovector, complex_field, from_cm, sample_cm
from cmkit.serialize import (
    DOCUMENTS,
    SchemaError,
    covector_from_json,
    covector_to_json,
    matrix_from_json,
    matrix_to_json,
    quadruple_from_json,
    quadruple_to_json,
    read_document,
    sheaf_from_json,
    sheaf_to_json,
    triple_from_json,
    triple_to_json,
    write_document,
)
from cmkit.moduli import FramedTorsionSheaf
from conftest import rand_matrix


def test_matrix_round_trip_rational():
    rng = random.Random(101)
    for _ in range(10):
        m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        data = matrix_to_json(m)
        assert matrix_from_json(data, m.field, "m") == m


def test_rational_strings_survive_lossless():
    m = Matrix.from_rows([[Fraction(10**30, 7), Fraction(-3, 9)]])
    data = matrix_to_json(m)
    assert data == [["1000000000000000000000000000000/7", "-1/3"]]
    assert matrix_from_json(data, m.field, "m") == m


def test_matrix_round_trip_complex():
    field = complex_field(1e-9)
    m = Matrix.from_rows([[complex(1.5, -2.25), complex(0, 1)]], field)
    data = matrix_to_json(m)
    assert data == [[[1.5, -2.25], [0.0, 1.0]]]
    assert matrix_from_json(data, field, "m") == m


def test_quadruple_round_trip():
    q = sample_cm(3, 5)
    data = quadruple_to_json(q)
    assert data["n"] == 3 and data["r"] == 1 and data["field"] == "rational"
    assert quadruple_from_json(data) == q


def test_triple_round_trip():
    kt = from_cm(sample_cm(2, 8))
    data = triple_to_json(kt)
    assert data["j"]["coeffs"]
    assert triple_from_json(data) == kt


def test_covector_round_trip_trims():
    pc = PolyCovector.from_coeffs([Matrix.row_vector([1, 2]), Matrix.row_vector([0, 3])])
    data = covector_to_json(pc)
    assert covector_from_json(data, pc.coeffs[0].field, "j", (1, 2)) == pc


def test_sheaf_round_trip():
    fs = FramedTorsionSheaf(Matrix.from_rows([[0, 1], [0, 0]]), Matrix.column([0, 1]))
    assert sheaf_from_json(sheaf_to_json(fs)) == fs


def test_one_table_describes_every_document():
    q = sample_cm(2, 3)
    fs = FramedTorsionSheaf(q.X, q.i)
    for doc in (q, from_cm(q), fs):
        data = write_document(doc)
        assert list(data) == ["n", "r", "field", *(b.name for b in DOCUMENTS[type(doc)])]
        assert read_document(type(doc), data) == doc


def test_schema_errors_carry_paths():
    with pytest.raises(SchemaError) as err:
        quadruple_from_json({"n": 2, "r": 1, "X": [["0", "0"]], "Y": [], "i": [], "j": []})
    assert "X" in str(err.value)
    with pytest.raises(SchemaError) as err:
        quadruple_from_json({"n": 2})
    assert "missing field" in str(err.value)
    with pytest.raises(SchemaError) as err:
        matrix_from_json([["1", "oops"]], Matrix.identity(1).field, "m")
    assert "m[0][1]" in str(err.value)
    with pytest.raises(SchemaError):
        matrix_from_json([["1", "2"], ["3"]], Matrix.identity(1).field, "m")


def test_bad_field_name():
    with pytest.raises(SchemaError):
        quadruple_from_json({"n": 1, "r": 1, "field": "octonion", "X": [["0"]], "Y": [["0"]], "i": [["1"]], "j": [["1"]]})


def test_non_finite_complex_rejected():
    field = complex_field()
    with pytest.raises(SchemaError):
        matrix_from_json([[[float("nan"), 0.0]]], field, "m")
    with pytest.raises(SchemaError):
        matrix_from_json([[[float("inf"), 0.0]]], field, "m")


def test_booleans_rejected():
    with pytest.raises(SchemaError):
        matrix_from_json([[True]], Matrix.identity(1).field, "m")
    with pytest.raises(SchemaError):
        quadruple_from_json({"n": True, "r": 1, "X": [["0"]], "Y": [["0"]], "i": [["1"]], "j": [["1"]]})
