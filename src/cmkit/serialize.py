"""JSON schemas for matrices, quadruples, Koszul triples, and framed sheaves.

Rational scalars travel as strings "p/q" (integers without the "/q"), so
round trips are lossless; complex scalars travel as [re, im] pairs.  All
validators raise :class:`SchemaError` carrying the path of the offending
field.

A document is an object with ``n``, ``r`` (default 1), an optional ``field``
and ``tolerance``, and one key per block.  :data:`DOCUMENTS` lists each
kind's blocks: the ``BLOCKS`` table its constructor checks, read here by the
one reader and the one writer.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from typing import Any

from .linalg import DEFAULT_TOLERANCE, Field, Matrix, RATIONAL, complex_field
from .adhm import CMQuadruple
from .koszul import FramedTorsionSheaf, KoszulTriple, PolyCovector


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
            try:
                return Fraction(data)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"bad rational literal {data!r}: {exc}") from None
        if isinstance(data, int):
            return Fraction(data)
        raise ValueError(f"expected a rational string, got {type(data).__name__}")
    if isinstance(data, (list, tuple)) and len(data) == 2:
        try:
            z = complex(float(data[0]), float(data[1]))
        except (TypeError, ValueError):
            raise ValueError("expected [re, im] numbers") from None
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
    return PolyCovector.from_coeffs(
        [matrix_from_json(c, field, f"{path}.coeffs[{k}]", shape) for k, c in enumerate(coeffs)])


DOCUMENTS = {kind: kind.BLOCKS for kind in (CMQuadruple, KoszulTriple, FramedTorsionSheaf)}
_READERS = {"matrix": matrix_from_json, "covector": covector_from_json}
_WRITERS = {"matrix": matrix_to_json, "covector": covector_to_json}


def _require(data: dict, key: str):
    if key not in data:
        raise SchemaError(key, "missing field")
    return data[key]


def read_document(kind: type, data, default_field: Field | None = None):
    """The ``kind`` object in ``data``, each block checked against its shape in :data:`DOCUMENTS`."""
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
        for b in DOCUMENTS[kind]
    ))


def write_document(doc) -> dict:
    out = {"n": doc.n, "r": doc.r, "field": doc.field.name}
    out.update((b.name, _WRITERS[b.type](getattr(doc, b.name))) for b in DOCUMENTS[type(doc)])
    return out


quadruple_from_json = partial(read_document, CMQuadruple)
triple_from_json = partial(read_document, KoszulTriple)
sheaf_from_json = partial(read_document, FramedTorsionSheaf)
quadruple_to_json = triple_to_json = sheaf_to_json = write_document
