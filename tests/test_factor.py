from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cmkit import FramedTorsionSheaf, Matrix, char_poly, factor, support
from cmkit.factor import factor_rational, multiply_out
from conftest import rand_invertible


def _sorted(factors):
    return sorted(factors, key=lambda t: (len(t[0]), t[0]))


def _sympy_factors(f):
    """Monic irreducible factors of f over Q by sympy's factor_list, the reference."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(f)], x, domain="QQ")
    out = []
    for fac, mult in poly.factor_list()[1]:
        coeffs = [Fraction(c.p, c.q) for c in reversed(fac.all_coeffs())]
        out.append((tuple(c / coeffs[-1] for c in coeffs), int(mult)))
    return _sorted(out)


def _q(*coeffs):
    return tuple(Fraction(c) for c in coeffs)


def _companion(coeffs):
    """Companion matrix of the monic polynomial with lower coefficients ``coeffs`` (ascending)."""
    n = len(coeffs)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n):
        rows[k][k - 1] = Fraction(1)
    for k in range(n):
        rows[k][n - 1] = -Fraction(coeffs[k])
    return rows


def _block_diag(blocks):
    n = sum(len(b) for b in blocks)
    rows = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for r, row in enumerate(b):
            rows[at + r][at : at + len(b)] = row
        at += len(b)
    return Matrix.from_rows(rows)


def _dense_12x12():
    """A conjugated block-companion X: char poly (x - 1/3)(x^2 - 2)^2 (x^3 - x - 1)(x^4 + 1)."""
    X = _block_diag([_companion(c) for c in ([Fraction(-1, 3)], [-2, 0], [-2, 0], [-1, -1, 0], [1, 0, 0, 0])])
    g = rand_invertible(random.Random(12), 12)
    return g @ X @ g.inverse()


FIXED = {
    # irreducible over Q, yet it splits mod every prime: recombination must rejoin the pieces
    "x^4 + 1": ([1, 0, 0, 0, 1], [(_q(1, 0, 0, 0, 1), 1)]),
    "x^4 - 10x^2 + 1": ([1, 0, -10, 0, 1], [(_q(1, 0, -10, 0, 1), 1)]),
    "x^8 - 2": ([-2, 0, 0, 0, 0, 0, 0, 0, 1], [(_q(-2, 0, 0, 0, 0, 0, 0, 0, 1), 1)]),
    "(2x - 1)^3 (3x^2 + 1)": (
        multiply_out([(_q(-1, 2), 3), (_q(1, 0, 3), 1)]),
        [(_q(Fraction(-1, 2), 1), 3), (_q(Fraction(1, 3), 0, 1), 1)],
    ),
}


@pytest.mark.parametrize("name", sorted(FIXED))
def test_fixed_cases(name):
    f, expected = FIXED[name]
    assert _sorted(factor_rational(f)) == expected
    assert _sympy_factors([Fraction(c) for c in f]) == expected


def test_dense_conjugated_12x12_char_poly():
    cp = char_poly(_dense_12x12())
    expected = [
        (_q(Fraction(-1, 3), 1), 1),
        (_q(-2, 0, 1), 2),
        (_q(-1, -1, 0, 1), 1),
        (_q(1, 0, 0, 0, 1), 1),
    ]
    assert _sorted(factor_rational(cp)) == expected
    assert _sympy_factors(cp) == expected


def test_constant_has_no_factors():
    assert factor_rational([Fraction(3)]) == []
    assert multiply_out([]) == [Fraction(1)]


_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)
_factor = st.tuples(
    st.lists(_fractions, min_size=1, max_size=4),
    st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4),
)


@settings(max_examples=120, deadline=None)
@given(st.lists(st.tuples(_factor, st.integers(1, 3)), min_size=1, max_size=3))
def test_products_with_repeated_factors_match_sympy(parts):
    # each part is (lower coefficients, nonzero leading coefficient), raised to a multiplicity
    f = multiply_out([(lower + [lead], mult) for (lower, lead), mult in parts])
    assert _sorted(factor_rational(f)) == _sympy_factors(f)


def test_support_rejects_factors_that_do_not_multiply_back(monkeypatch):
    fs = FramedTorsionSheaf(Matrix.from_rows([[0, 1], [2, 0]]), Matrix.column([1, 0]))
    assert support(fs) == [(_q(-2, 0, 1), 1)]
    monkeypatch.setattr(factor, "factor_rational", lambda f: [(_q(-1, 0, 1), 1)])
    with pytest.raises(AssertionError, match="multiply back"):
        support(fs)
