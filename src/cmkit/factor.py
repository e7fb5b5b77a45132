"""Factorization of rational polynomials over Q, standard library only.

Polynomials are lists of coefficients in ascending degree.  ``factor_rational``
works on integers until it makes the factors monic at the end:

1. clear denominators once, to a primitive integer polynomial with positive
   leading coefficient, and split it into square-free parts by Yun's
   algorithm, with primitive gcds by pseudo-remainders and exact integer
   quotients;
2. for each part f with leading coefficient b, take the first odd prime p
   not dividing b with f mod p square-free;
3. factor f mod p: distinct-degree factorization; the roots r of the
   product of the linear factors are found by evaluating it at each residue
   mod p, and only the products of factors of degree d >= 2 go to
   Cantor-Zassenhaus equal-degree splitting, with ``random.Random(p)``, so
   runs repeat exactly;
4. lift each root r mod p by Newton's iteration to p^k
   > 2 b |t|, t the lowest nonzero coefficient of f, and keep the primitive
   part of b x - b r (symmetric residues) when it divides f: these are the
   rational roots, so a polynomial that splits over Q is done here;
5. Hensel-lift the other modular factors, with the cofactor g they
   divide, along a balanced factor tree to p^k > 2 * (Mignotte bound of g)
   * lc(g), and recombine subsets of them, smallest first, by exact trial
   division over the integers.

Recombination tries up to 2^(s-1) subsets when the cofactor has s factors
mod p and few of them combine into true factors, so the worst case is
exponential in s (x^4 + 1 is irreducible but splits mod every prime).
References: Yun, On square-free decomposition algorithms, SYMSAC 1976; von
zur Gathen and Gerhard, Modern Computer Algebra, chapters 6, 14 and 15.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt
from typing import Sequence

from .linalg import _numerators


def factor_rational(f: Sequence) -> list[tuple[tuple[Fraction, ...], int]]:
    """Monic irreducible factors over Q of a nonzero rational polynomial, with multiplicities.

    ``f`` lists its coefficients, ints or Fractions, in ascending degree; the
    result pairs each factor's ascending coefficients (leading 1) with its
    multiplicity, in no particular order.  A constant has no factors.
    """
    out = []
    for part, mult in _square_free(_primitive(_numerators(_trim(list(f)))[0])):
        for g in _factor_square_free(part):
            out.append((tuple(Fraction(c, g[-1]) for c in g), mult))
    return out


def multiply_out(factors: Sequence[tuple[Sequence[Fraction], int]]) -> list[Fraction]:
    """The product of f^m over the pairs (f, m), as ascending coefficients.

    Each f goes in as integer numerators over the lcm e of its denominators
    (``_numerators``), so the loop multiplies integers, over d = prod e^m,
    and one Fraction is built per coefficient of the product.
    """
    out, d = [1], 1
    for coeffs, mult in factors:
        nums, e = _numerators(coeffs)
        for _ in range(mult):
            out, d = _mul(out, nums), d * e
    return [Fraction(c, d) for c in out]


# -- square-free decomposition over the integers ----------------------------


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _deriv(a: list) -> list:
    return _trim([k * c for k, c in enumerate(a)][1:])


def _primitive(a: list[int]) -> list[int]:
    g = gcd(*a)
    if a[-1] < 0:
        g = -g
    return [x // g for x in a]


def _prem(a: list[int], b: list[int]) -> list[int]:
    """A nonzero integer multiple of the remainder of a by b != 0, by fraction-free division."""
    r, db, lc = list(a), len(b) - 1, b[-1]
    for k in range(len(r) - 1 - db, -1, -1):
        c = r[k + db]
        if c:
            g = gcd(c, lc)
            if g != lc:
                r = [x * (lc // g) for x in r]
            c //= g
            for j, y in enumerate(b):
                r[k + j] -= c * y
    return _trim(r[:db])


def _z_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd with positive leading coefficient of integer polynomials, a != 0: the primitive PRS."""
    a = _primitive(a)
    while b:
        b = _primitive(b)
        a, b = b, _prem(a, b)
    return a


def _square_free(f: list[int]) -> list[tuple[list[int], int]]:
    """Yun's decomposition of a primitive f with lc(f) > 0: pairs (a, i), f = prod a^i.

    Each a is primitive, square-free and nonconstant with lc(a) > 0.  The
    gcds are primitive and every quotient is exact over the integers (Gauss's
    lemma), and b and d share one scale at every step, so no Fraction is built.
    """
    df = _deriv(f)
    a0 = _z_gcd(f, df)
    b, c = _exact_quotient(f, a0), _exact_quotient(df, a0)
    d = _sub(c, _deriv(b))
    out, i = [], 1
    while len(b) > 1:
        a = _z_gcd(b, d)
        if len(a) > 1:
            out.append((a, i))
        b, c = _exact_quotient(b, a), _exact_quotient(d, a)
        d = _sub(c, _deriv(b))
        i += 1
    return out


# -- integer polynomials, and polynomials modulo m --------------------------


def _mul(a: Sequence, b: Sequence) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _add(*polys: Sequence) -> list:
    out = [0] * max(map(len, polys))
    for a in polys:
        for k, y in enumerate(a):
            out[k] += y
    return _trim(out)


def _sub(a: Sequence, b: Sequence) -> list:
    out = list(a) + [0] * (len(b) - len(a))
    for k, y in enumerate(b):
        out[k] -= y
    return _trim(out)


def _reduce(a: Sequence[int], m: int) -> list[int]:
    return _trim([x % m for x in a])


def _divmod(a: Sequence[int], b: Sequence[int], m: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b modulo m; lc(b) must be a unit mod m."""
    r = _reduce(a, m)
    db = len(b) - 1
    if len(r) <= db:
        return [], r
    inv = pow(b[-1], -1, m)
    q = [0] * (len(r) - db)
    for k in range(len(r) - 1 - db, -1, -1):
        c = r[k + db] * inv % m
        q[k] = c
        if c:
            for j, y in enumerate(b):
                r[k + j] = (r[k + j] - c * y) % m
    return q, _trim(r[:db])


def _monic(a: list[int], m: int) -> list[int]:
    inv = pow(a[-1], -1, m)
    return [x * inv % m for x in a]


def _gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd modulo the prime p; a, b not both 0."""
    a, b = _reduce(a, p), _reduce(b, p)
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return _monic(a, p)


def _ext_gcd(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """s, t with s a + t b = 1 mod the prime p, deg s < deg b, deg t < deg a; a, b coprime."""
    r0, r1 = a, b
    s0, s1, t0, t1 = [1], [], [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _reduce(_sub(s0, _mul(q, s1)), p)
        t0, t1 = t1, _reduce(_sub(t0, _mul(q, t1)), p)
    inv = pow(r0[0], -1, p)
    return [x * inv % p for x in s0], [x * inv % p for x in t0]


def _powmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    """a^e modulo f and p."""
    out, a = [1], _divmod(a, f, p)[1]
    while e:
        if e & 1:
            out = _divmod(_mul(out, a), f, p)[1]
        e >>= 1
        if e:
            a = _divmod(_mul(a, a), f, p)[1]
    return out


def _product(polys: Sequence[list[int]], m: int) -> list[int]:
    out = [1]
    for g in polys:
        out = _reduce(_mul(out, g), m)
    return out


# -- factoring modulo p -----------------------------------------------------


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def _good_prime(f: list[int]) -> int:
    """The first odd prime p not dividing lc(f) with f mod p square-free."""
    p = 3
    while f[-1] % p == 0 or len(_gcd(f, _deriv(f), p)) > 1:
        p += 2
        while not _is_prime(p):
            p += 2
    return p


def _distinct_degree(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Pairs (g, d): g is the product of the degree-d monic irreducible factors of f mod p.

    f is monic and square-free mod p.
    """
    out = []
    h, d = [0, 1], 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _powmod(h, p, f, p)
        g = _gcd(_sub(h, [0, 1]), f, p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod(f, g, p)[0]
            h = _divmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _roots(g: list[int], p: int) -> list[int]:
    """The roots of g mod p, ascending, where g is a product of distinct monic linear factors: each residue is
    evaluated until deg g roots are found."""
    roots = []
    for r in range(p):
        if not _eval(g, r, p):
            roots.append(r)
            if len(roots) == len(g) - 1:
                break
    return roots


def _equal_degree(f: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Cantor-Zassenhaus: the monic factors of f mod the odd prime p, all irreducible of degree d."""
    if len(f) - 1 == d:
        return [f]
    e = (p**d - 1) // 2
    while True:
        a = _reduce([rng.randrange(p) for _ in range(len(f) - 1)], p)
        if len(a) < 2:
            continue
        g = _gcd(a, f, p)
        if len(g) == 1:
            g = _gcd(_sub(_powmod(a, e, f, p), [1]), f, p)
        if 1 < len(g) < len(f):
            return _equal_degree(g, d, p, rng) + _equal_degree(_divmod(f, g, p)[0], d, p, rng)


# -- Hensel lifting and recombination ---------------------------------------


def _hensel_step(f, g, h, s, t, m):
    """Lift f = g h and s g + t h = 1 from modulus m0 to m, where m0 | m | m0^2.

    h is monic, deg s < deg h, deg t < deg g (Modern Computer Algebra, Alg. 15.10).
    """
    e = _reduce(_sub(f, _mul(g, h)), m)
    q, r = _divmod(_mul(s, e), h, m)
    g = _reduce(_add(g, _mul(t, e), _mul(q, g)), m)
    h = _reduce(_add(h, r), m)
    b = _reduce(_sub(_add(_mul(s, g), _mul(t, h)), [1]), m)
    c, d = _divmod(_mul(s, b), h, m)
    s = _reduce(_sub(s, d), m)
    t = _reduce(_sub(t, _add(_mul(t, b), _mul(c, g))), m)
    return g, h, s, t


def _hensel_lift(f: list[int], factors: list[list[int]], p: int, k: int) -> list[list[int]]:
    """Monic factors of f mod p^k lifting ``factors``, where f = lc(f) * prod(factors) mod p."""
    pk = p**k
    if len(factors) == 1:
        return [_monic(_reduce(f, pk), pk)]
    half = len(factors) // 2
    g = _reduce([f[-1] * x for x in _product(factors[:half], p)], p)
    h = _product(factors[half:], p)
    s, t = _ext_gcd(g, h, p)
    j = 1
    while j < k:
        j = min(2 * j, k)
        g, h, s, t = _hensel_step(f, g, h, s, t, p**j)
    return _hensel_lift(g, factors[:half], p, k) + _hensel_lift(h, factors[half:], p, k)


def _symmetric(a: list[int], m: int) -> list[int]:
    return [x - m if 2 * x > m else x for x in a]


def _exact_quotient(f: list[int], g: list[int]) -> list[int] | None:
    """f / g over the integers, or None when g does not divide f; 0 / g is 0."""
    if not f:
        return []
    r = list(f)
    dg = len(g) - 1
    if len(r) <= dg:
        return None
    q = [0] * (len(r) - dg)
    for k in range(len(r) - 1 - dg, -1, -1):
        c, rem = divmod(r[k + dg], g[-1])
        if rem:
            return None
        q[k] = c
        if c:
            for j, y in enumerate(g):
                r[k + j] -= c * y
    return q if not any(r[:dg]) else None


def _recombine(f: list[int], lifted: list[list[int]], m: int) -> list[list[int]]:
    """Irreducible factors over Z of primitive square-free f from its monic factors mod m.

    m must exceed twice every coefficient of (lc(f) / lc(g)) * g for each
    factor g of f, so such a product is read exactly from its symmetric
    residues.  Subsets are tried smallest first; a subset that yields a true
    factor is removed and the search goes on at the same size.
    """
    out = []
    size = 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            g = _symmetric(_reduce([f[-1] * x for x in _product([lifted[i] for i in subset], m)], m), m)
            g = _primitive(g)
            if g[0] and f[0] % g[0]:
                continue
            q = _exact_quotient(f, g)
            if q is None:
                continue
            out.append(g)
            f = q
            lifted = [x for i, x in enumerate(lifted) if i not in subset]
            break
        else:
            size += 1
    out.append(f)
    return out


def _precision(p: int, bound: int) -> tuple[int, int]:
    """The least k with p^k > bound, and p^k."""
    k, pk = 1, p
    while pk <= bound:
        k, pk = k + 1, pk * p
    return k, pk


def _eval(a: list[int], x: int, m: int) -> int:
    v = 0
    for c in reversed(a):
        v = (v * x + c) % m
    return v


def _newton(f: list[int], r: int, p: int, k: int) -> int:
    """The root of f mod p^k that lifts the simple root r of f mod p, by Newton's iteration."""
    df, j = _deriv(f), 1
    while j < k:
        j = min(2 * j, k)
        m = p**j
        r = (r - _eval(f, r, m) * pow(_eval(df, r, m), -1, m)) % m
    return r


def _factor_square_free(f: list[int]) -> list[list[int]]:
    """Irreducible factors over Z of a primitive square-free f of degree >= 1 with lc(f) > 0.

    A rational root u/v of f (lowest terms) has v | lc(f) and u | t, the
    lowest nonzero coefficient of f, so lc(f) * (u/v) is read exactly from
    its symmetric residue mod p^k > 2 lc(f) |t|.  The roots r mod p are read
    by evaluating the product of the linear factors mod p at every residue
    (:func:`_roots`); each is lifted by Newton's iteration, and the primitive
    part of lc(f) x - lc(f) r is kept when it divides f.  Cantor-Zassenhaus
    splits only the products of factors of degree >= 2.  Those factors, and
    x - r for each root that is not rational, go with the cofactor into the
    Hensel tree and recombination, so a polynomial that splits over Q enters
    neither Cantor-Zassenhaus nor the Hensel tree.
    """
    if len(f) <= 2:
        return [f]
    p = _good_prime(f)
    roots, rest = [], []
    rng = random.Random(p)
    for g, d in _distinct_degree(_monic(_reduce(f, p), p), p):
        if d == 1:
            roots = _roots(g, p)
        else:
            rest.extend(_equal_degree(g, d, p, rng))
    if len(roots) + len(rest) == 1:
        return [f]
    lc, out, cofactor = f[-1], [], f
    k, pk = _precision(p, 2 * lc * abs(next(c for c in f if c)))
    for r in roots:
        h = _primitive(_symmetric([-lc * _newton(f, r, p, k) % pk, lc], pk))
        q = _exact_quotient(cofactor, h)
        if q is None:
            rest.append([-r % p, 1])
        else:
            out.append(h)
            cofactor = q
    # cofactor = lc(cofactor) * prod(rest) mod p, since each root kept came from its own factor of f mod p
    if len(rest) <= 1:
        return out + [cofactor] if rest else out
    mignotte = 2 ** (len(cofactor) - 1) * (isqrt(sum(c * c for c in cofactor)) + 1)
    k, pk = _precision(p, 2 * mignotte * cofactor[-1])
    return out + _recombine(cofactor, _hensel_lift(cofactor, rest, p, k), pk)
