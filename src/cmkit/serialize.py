"""JSON schemas for matrices, quadruples, Koszul triples, and framed sheaves.

Rational scalars travel as strings "p/q" (integers without the "/q"), so
round trips are lossless; complex scalars travel as [re, im] pairs.  A
rational entry is a JSON integer or a string matching ``-?[0-9]+(/[0-9]+)?``
(:func:`cmkit.linalg.parse_rational`, the grammar ``Field.coerce`` shares):
no exponent, decimal point, ``+``, ``_``, space or non-ASCII digit, so a
number is never longer than its literal.  A complex entry is a JSON number
or a pair of JSON numbers, each within the float range.  Booleans are never
numbers.  All validators raise :class:`SchemaError` carrying the path of the
offending field.

The reader builds integer forms: each rational entry becomes a pair (p, q)
of integers and each matrix is made from its pairs by
:meth:`Matrix.from_pairs`, with no Fraction built.  The writer prints a
rational matrix by :meth:`Matrix.rational_strings`, straight from the form
when no entry has been read, in the bytes ``str(Fraction)`` gives.

A document is an object with ``n``, ``r`` (default 1), an optional ``field``
and ``tolerance``, and one key per block; a framed-sheaf document has n at
most 16 and r at most 8 (:data:`SHEAF_CAPS`), and a quadruple or triple
document n at most 48 (:data:`QUADRUPLE_CAPS`).  The one reader and the one
writer take the blocks of each kind from its ``BLOCKS``, the table its
constructor checks.  The model classes are imported only by the readers
that build them, so loading this module loads nothing of cmkit but
``linalg``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any

from .linalg import DEFAULT_TOLERANCE, Field, Matrix, RATIONAL, complex_field, parse_rational

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


def scalar_to_json(value, field: Field):
    if field.is_rational:
        return str(value)
    return [value.real, value.imag]


def _rational_pair(data) -> tuple[int, int]:
    """(p, q), q > 0, of one rational entry: a JSON integer or a literal :func:`parse_rational` takes."""
    if isinstance(data, str):
        return parse_rational(data)
    if isinstance(data, bool):
        raise ValueError("expected a number, got a boolean")
    if isinstance(data, int):
        return data, 1
    raise ValueError(f"expected a rational string, got {type(data).__name__}")


def _complex_entry(data) -> complex:
    """One complex entry; raises ``ValueError``, to which :func:`matrix_from_json` adds the path."""
    if isinstance(data, bool):
        raise ValueError("expected a number, got a boolean")
    try:
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
    except OverflowError as exc:  # a JSON integer past the float range
        raise ValueError(str(exc)) from None
    raise ValueError(f"expected [re, im], got {type(data).__name__}")


def matrix_to_json(m: Matrix) -> list[list[Any]]:
    if m.field.is_rational:
        return m.rational_strings()
    return [[scalar_to_json(v, m.field) for v in m.row(i)] for i in range(m.rows)]


def matrix_from_json(data, field: Field, path: str, shape: tuple[int, int] | None = None) -> Matrix:
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise SchemaError(path, "expected a non-empty list of rows")
    nrows, ncols = len(data), len(data[0])
    rational, entries = field.is_rational, []
    for ridx, row in enumerate(data):
        if len(row) != ncols:
            raise SchemaError(f"{path}[{ridx}]", f"ragged row of length {len(row)} (expected {ncols})")
        for cidx, v in enumerate(row):
            try:
                entries.append(_rational_pair(v) if rational else _complex_entry(v))
            except ValueError as exc:
                raise SchemaError(f"{path}[{ridx}][{cidx}]", str(exc)) from None
    if shape is not None and (nrows, ncols) != shape:
        raise SchemaError(path, f"expected a {shape[0]}x{shape[1]} matrix, got {nrows}x{ncols}")
    if rational:
        return Matrix.from_pairs(nrows, ncols, entries, field)
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


# The largest n and r of a framed-sheaf document.  The End system of
# classify is (n^2 + n r) x (n^2 + r^2) and the fiber system of fiber-solve
# n^2 x (n^2 + n r), so the work grows as a high power of both.  At the
# caps, on dense rational X and i, a cold fiber-solve took 15 s and a cold
# classify 8 s (2 vCPUs at 2.1 GHz, Python 3.11).
SHEAF_CAPS = {"n": 16, "r": 8}

# The largest n of a quadruple or Koszul-triple document.  The slowest command
# on one is a rational invariants --max-len 10, whose 60 word products grow as
# n^3: cold, on the points sample writes, it took 2.5 s at n = 32, 13.7 s at
# n = 48 (a 28 KB document) and 41 s at n = 64 (51 KB), past fiber-solve at
# the sheaf caps.  At n = 64 a cold hilbert-ideal --degree 32 took 2.1 s and a
# cold normalize of a degree-64 covector 0.5 s (2 vCPUs at 2.1 GHz, Python
# 3.11).  adhm.MAX_SAMPLE_N is the same n, so every point sample writes reads
# back.  r is not capped: i and j hold n r entries each, so the document's
# own length bounds it.
QUADRUPLE_CAPS = {"n": 48}


def read_document(kind: type, data, default_field: Field | None = None, caps: dict[str, int] | None = None):
    """The ``kind`` object in ``data``, each block checked against its shape in ``kind.BLOCKS``.

    ``caps`` bounds the size fields it names, ``n`` or ``r``; they are checked
    before any block is read."""
    if not isinstance(data, dict):
        raise SchemaError(".", "expected an object")
    size = {"n": _require(data, "n"), "r": data.get("r", 1)}
    for key, value in size.items():
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise SchemaError(key, "expected a positive integer")
        if caps and value > caps.get(key, value):
            raise SchemaError(key, f"must be <= {caps[key]}, got {value}")
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

    return read_document(CMQuadruple, data, default_field, QUADRUPLE_CAPS)


def triple_from_json(data, default_field: Field | None = None):
    from .koszul import KoszulTriple

    return read_document(KoszulTriple, data, default_field, QUADRUPLE_CAPS)


def sheaf_from_json(data, default_field: Field | None = None):
    from .koszul import FramedTorsionSheaf

    return read_document(FramedTorsionSheaf, data, default_field, SHEAF_CAPS)


quadruple_to_json = triple_to_json = sheaf_to_json = write_document
