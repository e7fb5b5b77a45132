"""JSON schemas for matrices, quadruples, Koszul triples, and framed sheaves.

Rational scalars travel as strings "p/q" (integers without the "/q"), so
round trips are lossless; complex scalars travel as [re, im] pairs.  A
rational entry is a JSON integer or a string matching ``-?[0-9]+(/[0-9]+)?``:
no exponent, decimal point, ``+``, ``_``, space or non-ASCII digit, so a
number is never longer than its literal.  A complex entry is a JSON
number or a pair of JSON numbers.  Booleans are never numbers.  All
validators raise :class:`SchemaError` carrying the path of the offending
field.

A document is an object with ``n``, ``r`` (default 1), an optional ``field``
and ``tolerance``, and one key per block.  The one reader and the one writer
take the blocks of each kind from its ``BLOCKS``, the table its constructor
checks.  The model classes are imported only by the readers that build them,
so loading this module loads nothing of cmkit but ``linalg``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import TYPE_CHECKING, Any

from .linalg import DEFAULT_TOLERANCE, Field, Matrix, RATIONAL, complex_field

if TYPE_CHECKING:
    from .koszul import PolyCovector


class SchemaError(ValueError):
    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


def field_from_name(name: str, tolerance: float = DEFAULT_TOLERANCE) -> Field:
    bad = isinstance(tolerance, bool) or not isinstance(tolerance, (int, float))
    if bad or (isinstance(tolerance, float) and not math.isfinite(tolerance)) or tolerance < 0:
        raise SchemaError("tolerance", f"expected a finite number >= 0, got {tolerance!r}")
    if name == "rational":
        return RATIONAL
    if name == "complex":
        return complex_field(tolerance)
    raise SchemaError("field", f"unknown field {name!r}")


_RATIONAL_LITERAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def scalar_to_json(value, field: Field):
    if field.is_rational:
        return str(value)
    return [value.real, value.imag]


def scalar_from_json(data, field: Field):
    """One entry in ``field``; raises ``ValueError``, to which :func:`matrix_from_json` adds the path."""
    if isinstance(data, bool):
        raise ValueError("expected a number, got a boolean")
    if field.is_rational:
        if isinstance(data, str):
            literal = _RATIONAL_LITERAL.fullmatch(data)
            if literal is None:
                raise ValueError(f"bad rational literal {data!r}: Invalid literal for Fraction: {data!r}")
            num, den = literal.groups()
            try:
                return Fraction(int(num), int(den) if den else 1)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"bad rational literal {data!r}: {exc}") from None
        if isinstance(data, int):
            return Fraction(data)
        raise ValueError(f"expected a rational string, got {type(data).__name__}")
    if isinstance(data, (list, tuple)) and len(data) == 2:
        if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in data):
            raise ValueError("expected [re, im] numbers")
        z = complex(float(data[0]), float(data[1]))
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError("non-finite complex entry")
        return z
    if isinstance(data, (int, float)):
        if not math.isfinite(data):
            raise ValueError("non-finite entry")
        return complex(data)
    raise ValueError(f"expected [re, im], got {type(data).__name__}")


def matrix_to_json(m: Matrix) -> list[list[Any]]:
    return [[scalar_to_json(v, m.field) for v in m.row(i)] for i in range(m.rows)]


def matrix_from_json(data, field: Field, path: str, shape: tuple[int, int] | None = None) -> Matrix:
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise SchemaError(path, "expected a non-empty list of rows")
    nrows, ncols = len(data), len(data[0])
    entries = []
    for ridx, row in enumerate(data):
        if len(row) != ncols:
            raise SchemaError(f"{path}[{ridx}]", f"ragged row of length {len(row)} (expected {ncols})")
        for cidx, v in enumerate(row):
            try:
                entries.append(scalar_from_json(v, field))
            except ValueError as exc:
                raise SchemaError(f"{path}[{ridx}][{cidx}]", str(exc)) from None
    if shape is not None and (nrows, ncols) != shape:
        raise SchemaError(path, f"expected a {shape[0]}x{shape[1]} matrix, got {nrows}x{ncols}")
    return Matrix(nrows, ncols, tuple(entries), field)


def covector_to_json(pc: PolyCovector) -> dict:
    return {"coeffs": [matrix_to_json(c) for c in pc.coeffs]}


def covector_from_json(data, field: Field, path: str, shape: tuple[int, int]) -> PolyCovector:
    if not isinstance(data, dict) or "coeffs" not in data:
        raise SchemaError(path, 'expected {"coeffs": [matrix, ...]}')
    coeffs = data["coeffs"]
    if not isinstance(coeffs, list) or not coeffs:
        raise SchemaError(f"{path}.coeffs", "expected a non-empty list of matrices")
    from .koszul import PolyCovector

    return PolyCovector.from_coeffs(
        [matrix_from_json(c, field, f"{path}.coeffs[{k}]", shape) for k, c in enumerate(coeffs)])


_READERS = {"matrix": matrix_from_json, "covector": covector_from_json}
_WRITERS = {"matrix": matrix_to_json, "covector": covector_to_json}


def _require(data: dict, key: str):
    if key not in data:
        raise SchemaError(key, "missing field")
    return data[key]


def read_document(kind: type, data, default_field: Field | None = None):
    """The ``kind`` object in ``data``, each block checked against its shape in ``kind.BLOCKS``."""
    if not isinstance(data, dict):
        raise SchemaError(".", "expected an object")
    size = {"n": _require(data, "n"), "r": data.get("r", 1)}
    for key, value in size.items():
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise SchemaError(key, "expected a positive integer")
    fallback = default_field or RATIONAL
    # an explicit "field" key in the document wins over the caller's default
    field = field_from_name(
        data.get("field", fallback.name),
        data.get("tolerance", DEFAULT_TOLERANCE if fallback.is_rational else fallback.tolerance),
    )
    return kind(*(
        _READERS[b.type](_require(data, b.name), field, b.name, (size[b.shape[0]], size[b.shape[1]]))
        for b in kind.BLOCKS
    ))


def write_document(doc) -> dict:
    out = {"n": doc.n, "r": doc.r, "field": doc.field.name}
    out.update((b.name, _WRITERS[b.type](getattr(doc, b.name))) for b in type(doc).BLOCKS)
    return out


def quadruple_from_json(data, default_field: Field | None = None):
    from .adhm import CMQuadruple

    return read_document(CMQuadruple, data, default_field)


def triple_from_json(data, default_field: Field | None = None):
    from .koszul import KoszulTriple

    return read_document(KoszulTriple, data, default_field)


def sheaf_from_json(data, default_field: Field | None = None):
    from .koszul import FramedTorsionSheaf

    return read_document(FramedTorsionSheaf, data, default_field)


quadruple_to_json = triple_to_json = sheaf_to_json = write_document
