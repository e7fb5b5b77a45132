from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from cmkit import FramedTorsionSheaf, Matrix, char_poly, factor, support
from cmkit.factor import _square_free, factor_rational, multiply_out
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


# Products of up to 8 linear factors x - r, r with denominator <= 5, the root 0
# and repeated roots allowed, times none or one of three irreducible factors
# (x^4 + 1 splits mod every prime, so it takes the Hensel tree), by a constant.
_IRREDUCIBLE = [None, _q(-2, 0, 1), _q(-1, -1, 0, 1), _q(1, 0, 0, 0, 1)]
_root = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-6, max_value=6, max_denominator=5))


@st.composite
def _split_products(draw):
    distinct = draw(st.lists(_root, min_size=1, max_size=8))
    roots = distinct + draw(st.lists(st.sampled_from(distinct), max_size=8 - len(distinct)))
    parts = [(_q(-r, 1), 1) for r in roots]
    extra = draw(st.sampled_from(_IRREDUCIBLE))
    if extra is not None:
        parts.append((extra, 1))
    lead = draw(st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4))
    return [lead * c for c in multiply_out(parts)]


@settings(max_examples=150, deadline=None)
@given(_split_products())
def test_split_products_match_sympy(f):
    assert _sorted(factor_rational(f)) == _sympy_factors(f)


# Yun's square-free decomposition over Fraction, as factor_rational ran it
# before Yun's loop moved to the integers: the oracle of the integer loop.
def _q_divmod(a, b):
    r = list(a)
    db = len(b) - 1
    if len(r) <= db:
        return [], r
    q = [Fraction(0)] * (len(r) - db)
    for k in range(len(r) - 1 - db, -1, -1):
        c = r[k + db] / b[-1]
        q[k] = c
        if c:
            for j, y in enumerate(b):
                r[k + j] -= c * y
    return q, _trim(r[:db])


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _deriv(a):
    return _trim([k * c for k, c in enumerate(a)][1:])


def _sub(a, b):
    out = list(a) + [0] * (len(b) - len(a))
    for k, y in enumerate(b):
        out[k] -= y
    return _trim(out)


def _q_monic(a):
    return [c / a[-1] for c in a]


def _q_gcd(a, b):
    while b:
        a, b = b, _q_divmod(a, b)[1]
    return _q_monic(a)


def _fraction_yun(f):
    f = _q_monic(_trim(list(f)))
    df = _deriv(f)
    a0 = _q_gcd(f, df)
    b, c = _q_divmod(f, a0)[0], _q_divmod(df, a0)[0]
    d = _sub(c, _deriv(b))
    out, i = [], 1
    while len(b) > 1:
        a = _q_gcd(b, d)
        if len(a) > 1:
            out.append((a, i))
        b, c = _q_divmod(b, a)[0], _q_divmod(d, a)[0]
        d = _sub(c, _deriv(b))
        i += 1
    return out


@settings(max_examples=150, deadline=None)
@given(_split_products())
def test_integer_yun_matches_fraction_yun(f):
    nums = [int(c * lcm(*(x.denominator for x in f))) for c in f]
    parts = _square_free([c // gcd(*nums) for c in nums])
    assert all(gcd(*a) == 1 and a[-1] > 0 for a, _ in parts)
    assert [([Fraction(c, a[-1]) for c in a], i) for a, i in parts] == _fraction_yun(f)


@pytest.mark.parametrize("roots", [
    [Fraction(k) for k in range(1, 17)],
    [Fraction(0), Fraction(-1, 2), Fraction(2, 3), Fraction(-5, 4), Fraction(7), Fraction(3, 5)],
    [Fraction(1, 2), Fraction(-1, 2)],
], ids=["1..16", "mixed-denominators", "plus-minus-half"])
def test_split_polynomial_never_enters_the_hensel_tree(roots, monkeypatch):
    def refuse(*args):
        raise AssertionError("_hensel_lift called on a polynomial that splits over Q")

    monkeypatch.setattr(factor, "_hensel_lift", refuse)
    f = multiply_out([(_q(-r, 1), 1) for r in roots])
    assert _sorted(factor_rational(f)) == _sorted([(_q(-r, 1), 1) for r in roots])


def test_support_rejects_factors_that_do_not_multiply_back(monkeypatch):
    fs = FramedTorsionSheaf(Matrix.from_rows([[0, 1], [2, 0]]), Matrix.column([1, 0]))
    assert support(fs) == [(_q(-2, 0, 1), 1)]
    monkeypatch.setattr(factor, "factor_rational", lambda f: [(_q(-1, 0, 1), 1)])
    with pytest.raises(AssertionError, match="multiply back"):
        support(fs)
