"""JSON schemas for matrices, quadruples, Koszul triples, and framed sheaves.

Rational scalars travel as strings "p/q" (integers without the "/q"), so
round trips are lossless; complex scalars travel as [re, im] pairs.  All
validators raise :class:`SchemaError` carrying the path of the offending
field.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any

from .linalg import Field, Matrix, RATIONAL, complex_field
from .adhm import CMQuadruple
from .koszul import KoszulTriple, PolyCovector
from .moduli import FramedTorsionSheaf


class SchemaError(ValueError):
    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


def field_from_name(name: str, tolerance: float = 1e-9) -> Field:
    bad = isinstance(tolerance, bool) or not isinstance(tolerance, (int, float))
    if bad or (isinstance(tolerance, float) and not math.isfinite(tolerance)) or tolerance < 0:
        raise SchemaError("tolerance", f"expected a finite number >= 0, got {tolerance!r}")
    if name == "rational":
        return RATIONAL
    if name == "complex":
        return complex_field(tolerance)
    raise SchemaError("field", f"unknown field {name!r}")


def scalar_to_json(value, field: Field):
    if field.is_rational:
        return str(value)
    return [value.real, value.imag]


def scalar_from_json(data, field: Field, path: str):
    if isinstance(data, bool):
        raise SchemaError(path, "expected a number, got a boolean")
    if field.is_rational:
        if isinstance(data, str):
            try:
                return Fraction(data)
            except (ValueError, ZeroDivisionError) as exc:
                raise SchemaError(path, f"bad rational literal {data!r}: {exc}") from None
        if isinstance(data, int):
            return Fraction(data)
        raise SchemaError(path, f"expected a rational string, got {type(data).__name__}")
    if isinstance(data, (list, tuple)) and len(data) == 2:
        try:
            z = complex(float(data[0]), float(data[1]))
        except (TypeError, ValueError):
            raise SchemaError(path, "expected [re, im] numbers") from None
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise SchemaError(path, "non-finite complex entry")
        return z
    if isinstance(data, (int, float)):
        if not math.isfinite(data):
            raise SchemaError(path, "non-finite entry")
        return complex(data)
    raise SchemaError(path, f"expected [re, im], got {type(data).__name__}")


def matrix_to_json(m: Matrix) -> list[list[Any]]:
    return [[scalar_to_json(v, m.field) for v in m.row(i)] for i in range(m.rows)]


def matrix_from_json(data, field: Field, path: str, shape: tuple[int, int] | None = None) -> Matrix:
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise SchemaError(path, "expected a non-empty list of rows")
    ncols = len(data[0])
    rows = []
    for ridx, row in enumerate(data):
        if len(row) != ncols:
            raise SchemaError(f"{path}[{ridx}]", f"ragged row of length {len(row)} (expected {ncols})")
        rows.append([scalar_from_json(v, field, f"{path}[{ridx}][{cidx}]") for cidx, v in enumerate(row)])
    m = Matrix.from_rows(rows, field)
    if shape is not None and (m.rows, m.cols) != shape:
        raise SchemaError(path, f"expected a {shape[0]}x{shape[1]} matrix, got {m.rows}x{m.cols}")
    return m


def _require(data: dict, key: str, path: str):
    if key not in data:
        raise SchemaError(f"{path}.{key}" if path else key, "missing field")
    return data[key]


def _dims(data: dict, path: str, default_field: Field | None = None) -> tuple[int, int, Field]:
    n = _require(data, "n", path)
    r = data.get("r", 1)
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise SchemaError(f"{path}.n" if path else "n", "expected a positive integer")
    if isinstance(r, bool) or not isinstance(r, int) or r < 1:
        raise SchemaError(f"{path}.r" if path else "r", "expected a positive integer")
    fallback = default_field or RATIONAL
    # an explicit "field" key in the document wins over the caller's default
    field = field_from_name(
        data.get("field", fallback.name),
        data.get("tolerance", 1e-9 if fallback.is_rational else fallback.tolerance),
    )
    return n, r, field


def quadruple_to_json(q: CMQuadruple) -> dict:
    return {
        "n": q.n,
        "r": q.r,
        "field": q.field.name,
        "X": matrix_to_json(q.X),
        "Y": matrix_to_json(q.Y),
        "i": matrix_to_json(q.i),
        "j": matrix_to_json(q.j),
    }


def quadruple_from_json(data, path: str = "", default_field: Field | None = None) -> CMQuadruple:
    if not isinstance(data, dict):
        raise SchemaError(path or ".", "expected an object")
    n, r, field = _dims(data, path, default_field)
    pre = f"{path}." if path else ""
    return CMQuadruple(
        matrix_from_json(_require(data, "X", path), field, f"{pre}X", (n, n)),
        matrix_from_json(_require(data, "Y", path), field, f"{pre}Y", (n, n)),
        matrix_from_json(_require(data, "i", path), field, f"{pre}i", (n, r)),
        matrix_from_json(_require(data, "j", path), field, f"{pre}j", (r, n)),
    )


def covector_to_json(pc: PolyCovector) -> dict:
    return {"coeffs": [matrix_to_json(c) for c in pc.coeffs]}


def covector_from_json(data, field: Field, path: str, shape: tuple[int, int]) -> PolyCovector:
    if not isinstance(data, dict) or "coeffs" not in data:
        raise SchemaError(path, 'expected {"coeffs": [matrix, ...]}')
    coeffs = data["coeffs"]
    if not isinstance(coeffs, list) or not coeffs:
        raise SchemaError(f"{path}.coeffs", "expected a non-empty list of matrices")
    mats = [
        matrix_from_json(c, field, f"{path}.coeffs[{k}]", shape) for k, c in enumerate(coeffs)
    ]
    return PolyCovector.from_coeffs(mats)


def triple_to_json(kt: KoszulTriple) -> dict:
    return {
        "n": kt.n,
        "r": kt.r,
        "field": kt.field.name,
        "X": matrix_to_json(kt.X),
        "i": matrix_to_json(kt.i),
        "Y": matrix_to_json(kt.Y),
        "j": covector_to_json(kt.j),
    }


def triple_from_json(data, path: str = "", default_field: Field | None = None) -> KoszulTriple:
    if not isinstance(data, dict):
        raise SchemaError(path or ".", "expected an object")
    n, r, field = _dims(data, path, default_field)
    pre = f"{path}." if path else ""
    return KoszulTriple(
        matrix_from_json(_require(data, "X", path), field, f"{pre}X", (n, n)),
        matrix_from_json(_require(data, "i", path), field, f"{pre}i", (n, r)),
        matrix_from_json(_require(data, "Y", path), field, f"{pre}Y", (n, n)),
        covector_from_json(_require(data, "j", path), field, f"{pre}j", (r, n)),
    )


def sheaf_to_json(fs: FramedTorsionSheaf) -> dict:
    return {
        "n": fs.n,
        "r": fs.r,
        "field": fs.field.name,
        "X": matrix_to_json(fs.X),
        "i": matrix_to_json(fs.i),
    }


def sheaf_from_json(data, path: str = "", default_field: Field | None = None) -> FramedTorsionSheaf:
    if not isinstance(data, dict):
        raise SchemaError(path or ".", "expected an object")
    n, r, field = _dims(data, path, default_field)
    pre = f"{path}." if path else ""
    return FramedTorsionSheaf(
        matrix_from_json(_require(data, "X", path), field, f"{pre}X", (n, n)),
        matrix_from_json(_require(data, "i", path), field, f"{pre}i", (n, r)),
    )
