"""Exact rational matrices as lists of rows of ``Fraction``, stdlib only.

The benchmark builds its inputs and checks cmkit's reports with this module
alone, so neither depends on the code under measurement.
"""

from __future__ import annotations

from fractions import Fraction


def identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]


def zeros(rows: int, cols: int) -> list[list[Fraction]]:
    return [[Fraction(0)] * cols for _ in range(rows)]


def mul(a, b):
    inner, cols = len(b), len(b[0])
    out = []
    for row in a:
        acc = [Fraction(0)] * cols
        for k in range(inner):
            x = row[k]
            if x:
                bk = b[k]
                for c in range(cols):
                    acc[c] += x * bk[c]
        out.append(acc)
    return out


def add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scale(c, a):
    return [[c * x for x in row] for row in a]


def commutator(a, b):
    return sub(mul(a, b), mul(b, a))


def is_zero(a) -> bool:
    return all(x == 0 for row in a for x in row)


def trace(a) -> Fraction:
    return sum((a[k][k] for k in range(len(a))), Fraction(0))


def _eliminate(rows: list[list[Fraction]]) -> int:
    """Row-reduce in place to echelon form; return the rank."""
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank]
        inv = 1 / p[c]
        for c2 in range(c, ncols):
            p[c2] *= inv
        for r in range(len(rows)):
            if r != rank and rows[r][c] != 0:
                f = rows[r][c]
                rr = rows[r]
                for c2 in range(c, ncols):
                    rr[c2] -= f * p[c2]
        rank += 1
    return rank


def rank(rows) -> int:
    return _eliminate([list(r) for r in rows])


def inverse(a):
    n = len(a)
    aug = [list(row) + e for row, e in zip(a, identity(n))]
    if _eliminate(aug) != n:
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in aug]


def bits(x: Fraction) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def max_bits(*mats) -> int:
    return max((bits(x) for m in mats for row in m for x in row), default=0)


def to_json(a) -> list[list[str]]:
    return [[str(x) for x in row] for row in a]


def from_json(data) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in data]
