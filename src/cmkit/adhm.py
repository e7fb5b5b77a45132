"""Calogero-Moser quadruples: moment maps, stability, invariants, Hilbert ideals.

A quadruple (X, Y, i, j) consists of two n x n matrices, an n x r framing
column block i and an r x n covector block j.  Two sign conventions coexist
and both are exposed:

* ``moment_std``:   [X, Y] + i j          (zero level cuts out the
  commuting-variety / Hilbert-scheme side),
* ``cm_residual``:  [X, Y] - i j + I      (zero cuts out Calogero-Moser
  points; swapping X and Y converts one convention into the other).
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple

from .linalg import (
    Block,
    Blocks,
    Matrix,
    _apply,
    _closure_rank,
    _kernel_pairs,
    _product,
    _reduced,
    _rows,
    _rref,
    _trace_sum,
    commutator,
    format_terms,
    power,
)
from .linalg import kernel_basis, rank  # noqa: F401  (tracer sites: bench/spans.py wraps them)


class CMQuadruple(Blocks):
    """Matrices (X, Y, i, j); a point of the linear-algebra model of CM_n."""

    BLOCKS = (Block("X", "nn"), Block("Y", "nn"), Block("i", "nr"), Block("j", "rn"))


def moment_std(q: CMQuadruple) -> Matrix:
    """XY - YX + i j."""
    return commutator(q.X, q.Y) + q.i @ q.j


def cm_residual(q: CMQuadruple) -> Matrix:
    """XY - YX - i j + I; q is a Calogero-Moser point iff this vanishes."""
    eye = Matrix.identity(q.n, q.field)
    return commutator(q.X, q.Y) - q.i @ q.j + eye


def is_cm_point(q: CMQuadruple) -> bool:
    return cm_residual(q).is_zero()


def conjugate(q: CMQuadruple, g: Matrix) -> CMQuadruple:
    """Base change by g: (gXg^-1, gYg^-1, g i, j g^-1).  Raises on singular g."""
    ginv = g.inverse()
    return CMQuadruple(g @ q.X @ ginv, g @ q.Y @ ginv, g @ q.i, q.j @ ginv)


def is_stable(q: CMQuadruple) -> bool:
    """True iff the columns of i generate the whole space under X and Y."""
    return _closure_rank(q.i, [q.X, q.Y]) == q.n


# There are 2^(L+1) - 1 words of length <= L, so the report doubles with every
# step of the cutoff.  Each rational word costs O(n^2) beyond the 2^(h+1) - 4
# n x n products of the words of length 2..h, h = ceil(L/2) (60 at L = 10); the
# complex field forms every word as one n x n product, so its work doubles too.
MAX_WORD_LEN = 10
# sample draws and reports n^2 entries.  48 is the n cap of a quadruple document (serialize.QUADRUPLE_CAPS),
# so every point sample writes reads back.
MAX_SAMPLE_N = 48
# A degree bound d gives (d+1)(d+2)/2 monomials and about as many kernel
# vectors.  The cap holds for the default bound n too, so a larger n needs
# an explicit bound.
MAX_HILBERT_DEGREE = 32


def word_invariants(q: CMQuadruple, max_len: int) -> list[tuple[str, object]]:
    """Conjugation invariants: tr(W) and tr(j W i) for words W in {X, Y}.

    Traces run over words of length 1..max_len, pairings over 0..max_len
    (the empty word gives tr(j i)).  Labels are ``tr(W)`` and ``j·W·i``; the
    separating power of a fixed cutoff is heuristic.  ``max_len`` above
    :data:`MAX_WORD_LEN` is refused with ``ValueError``.

    The rational field forms only the words of length <= h = ceil(max_len / 2),
    as integer lists: a word with a letters X and b letters Y is its
    numerators over d_X^a d_Y^b, made by one :func:`linalg._product` from its
    prefix's list (X and Y themselves at length 1), and j W and W i are
    integer lists too.  A longer word is split as W = U V with |U| = h, and
    tr(W) = tr(U V) and j W i = tr((j U)(V i)), an r x r trace, are integer
    sums (:func:`linalg._trace_sum`) without forming W, O(n^2) each; each
    invariant is one Fraction.  The complex field forms every word as a
    Matrix prefix product, so its float sums keep that association.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if max_len > MAX_WORD_LEN:
        raise ValueError(f"max_len must be <= {MAX_WORD_LEN}, got {max_len}")
    traces: list[tuple[str, object]] = []
    if not q.field.is_rational:  # every word I @ a @ b ..., extended from its prefix's
        words, pairings = [("", Matrix.identity(q.n, q.field))], []
        for length in range(max_len + 1):
            if length:
                words = [(word + ch, w @ (q.X if ch == "X" else q.Y)) for word, w in words for ch in "XY"]
                traces.extend((f"tr({word})", w.trace()) for word, w in words)
            pairings.extend((f"j·{word}·i" if word else "j·i", (q.j @ w @ q.i).trace()) for word, w in words)
        return traces + pairings
    n, r, h = q.n, q.r, -(-max_len // 2)
    (j, dj), (i, di) = q.j._integer_form(), q.i._integer_form()
    letters = [("X", *q.X._integer_form()), ("Y", *q.Y._integer_form())]
    pairings = [("j·i", Fraction(_trace_sum(j, i, r, n), dj * di))]
    tails: dict[int, list] = {}  # by length, the words V of length 1..max_len - h as (label, V, V i, denominator)
    # Words of one length in lexicographic order, as (label, numerators, denominator), each extended from its prefix.
    words = letters
    for length in range(1, h + 1):
        if length > 1:
            words = [(word + ch, _product(w, z, n, n, n, 0), e * dz) for word, w, e in words for ch, z, dz in letters]
        traces.extend((f"tr({word})", Fraction(sum(w[:: n + 1]), e)) for word, w, e in words)
        heads = [(word, w, _product(j, w, r, n, n, 0), e) for word, w, e in words]
        pairings.extend((f"j·{word}·i", Fraction(_trace_sum(jw, i, r, n), dj * e * di)) for word, _, jw, e in heads)
        if length <= max_len - h:
            tails[length] = [(word, w, _product(w, i, n, n, r, 0), e) for word, w, e in words]
    # heads now holds the words U of length h; each longer word is U V.
    for length in range(h + 1, max_len + 1):
        for u, uw, ju, eu in heads:
            tail = tails[length - h]
            traces.extend((f"tr({u}{v})", Fraction(_trace_sum(uw, vw, n, n), eu * ev)) for v, vw, _, ev in tail)
            pairings.extend((f"j·{u}{v}·i", Fraction(_trace_sum(ju, vi, r, n), dj * eu * ev * di))
                            for v, _, vi, ev in tail)
    return traces + pairings


def _monomials(degree_bound: int) -> list[tuple[int, int]]:
    """Bivariate monomial exponents (a, b) with a+b <= bound, graded, x first (the order of :func:`poly_str`)."""
    mons = []
    for total in range(degree_bound + 1):
        for a in range(total, -1, -1):
            mons.append((a, total - a))
    return mons


# A polynomial in x and y: its nonzero terms c x^a y^b as ((a, b), c) pairs.
Poly = tuple[tuple[tuple[int, int], object], ...]


class HilbertIdeal(NamedTuple):
    """Kernel of the evaluation map f |-> f(X, Y) i on bounded-degree polynomials.

    Each basis polynomial lists its terms in :func:`poly_str` order.
    """

    monomials: tuple[tuple[int, int], ...]
    basis: tuple[Poly, ...]
    quotient_dim: int
    degree_bound: int


def monomial_str(a: int, b: int) -> str:
    """The monomial x^a y^b as :func:`poly_str` prints it, ``""`` for the constant."""
    return power("x", a) + power("y", b)


def poly_str(poly: Iterable[tuple[tuple[int, int], object]]) -> str:
    """The polynomial sum of c x^a y^b over the ((a, b), c) pairs, graded by a + b and then by descending a."""
    terms = sorted(poly, key=lambda t: (t[0][0] + t[0][1], -t[0][0]))
    return format_terms((c, monomial_str(a, b)) for (a, b), c in terms)


def hilbert_ideal(q: CMQuadruple, degree_bound: int | None = None) -> HilbertIdeal:
    """Ideal of the length-n quotient of C[x, y] attached to a commuting stable pair.

    Requires XY = YX, j = 0, r = 1 and stability (i cyclic).  The span V_d
    of the columns of degree <= d grows strictly with d until it is the
    whole space (a V_d equal to V_(d+1) is invariant and holds i), so for
    degree_bound >= n - 1 the quotient dimension is exactly n.  A degree
    bound above :data:`MAX_HILBERT_DEGREE` is refused with ``ValueError``,
    and so is the default bound n when n is above it.

    This is :func:`_hilbert_terms` with one Fraction made of each rational
    term's pair (p, q); the command line prints the pairs themselves.
    """
    ideal = _hilbert_terms(q, degree_bound)
    if not q.field.is_rational:
        return ideal
    return ideal._replace(basis=tuple(tuple((m, Fraction(*c)) for m, c in poly) for poly in ideal.basis))


def _hilbert_terms(q: CMQuadruple, degree_bound: int | None) -> HilbertIdeal:
    """:func:`hilbert_ideal`, with each rational coefficient p/q as its pair (p, q) in lowest terms, q > 0.

    The rational precondition XY = YX compares the integer lists of XY and
    YX, both over d_X d_Y, from :func:`linalg._product`.  A bound d gives
    (d+1)(d+2)/2 columns X^a Y^b i.  A rational column is the integer form
    (u, e) that ``@`` would give it: integers u over e, made from an earlier
    column by one product with the numerator rows of X or Y
    (:func:`linalg._apply`) and one gcd, with no Matrix.  Scaled to the lcm
    of their e, the columns are the rows :func:`linalg._rows` gives of the
    evaluation matrix [X^a Y^b i | ...].  One integer elimination of them
    gives each generator's nonzero terms as pairs read off the pivot rows,
    one gcd each.  The complex field makes each column from d powers of X
    and of Y, n^3 work per column, eliminates the rows :func:`linalg._rows`
    gives of the columns and reads the kernel vectors off the pivot rows
    (:func:`linalg._kernel_pairs`), with no evaluation matrix.
    """
    if degree_bound is not None and degree_bound < 0:
        raise ValueError(f"degree bound must be >= 0, got {degree_bound}")
    if degree_bound is not None and degree_bound > MAX_HILBERT_DEGREE:
        raise ValueError(f"degree bound must be <= {MAX_HILBERT_DEGREE}, got {degree_bound}")
    if degree_bound is None and q.n > MAX_HILBERT_DEGREE:
        raise ValueError(f"default degree bound n = {q.n} must be <= {MAX_HILBERT_DEGREE}: "
                         "pass a degree bound (--degree)")
    if q.r != 1:
        raise ValueError("hilbert_ideal needs framing rank 1")
    if not q.j.is_zero():
        raise ValueError("hilbert_ideal needs j = 0")
    n, rational = q.n, q.field.is_rational
    if rational:
        (x, _), (y, _) = q.X._integer_form(), q.Y._integer_form()
        commuting = _product(x, y, n, n, n, 0) == _product(y, x, n, n, n, 0)
    else:
        commuting = commutator(q.X, q.Y).is_zero()
    if not commuting:
        raise ValueError("hilbert_ideal needs commuting X and Y")
    if not is_stable(q):
        raise ValueError("hilbert_ideal needs a stable quadruple (cyclic framing)")
    d = n if degree_bound is None else degree_bound
    # _monomials lists the monomials in poly_str order, so each polynomial's terms come out in it.
    mons = _monomials(d)
    if rational:
        # The columns X^a Y^b i as integer forms (u, e), each X or Y applied to an earlier one.
        x_op, y_op = [(_rows(m), m._integer_form()[1]) for m in (q.X, q.Y)]
        cols: dict[tuple[int, int], tuple[list[int], int]] = {(0, 0): q.i._integer_form()}
        for a, b in mons[1:]:
            (op, s), (u, e) = (x_op, cols[a - 1, b]) if a else (y_op, cols[0, b - 1])
            cols[a, b] = _reduced(_apply(op, u), s * e)
        # [X^a Y^b i | ...] over the lcm of the e: the rows _rows gives of the evaluation matrix.
        lcd = lcm(*(e for _, e in cols.values()))
        scaled = [u if e == lcd else [v * (lcd // e) for v in u] for u, e in cols.values()]
        rows = [list(r) for r in zip(*scaled)]
        kern = _kernel_pairs(*_rref(rows, q.field), len(mons), q.field)
        basis = tuple(tuple((m, _lowest_terms(*c)) for m, c in zip(mons, v) if c[0]) for v in kern)
    else:
        # (X^a Y^b) i from the powers, the association the complex reports were recorded with.
        x_pows = [Matrix.identity(n, q.field)]
        y_pows = [Matrix.identity(n, q.field)]
        for _ in range(d):
            x_pows.append(x_pows[-1] @ q.X)
            y_pows.append(y_pows[-1] @ q.Y)
        rows = _rows(*[x_pows[a] @ y_pows[b] @ q.i for a, b in mons])
        kern = _kernel_pairs(*_rref(rows, q.field), len(mons), q.field)
        basis = tuple(tuple((m, c) for m, c in zip(mons, v) if not q.field.is_zero(c)) for v in kern)
    return HilbertIdeal(tuple(mons), basis, len(mons) - len(kern), d)


def _lowest_terms(p: int, q: int) -> tuple[int, int]:
    """The numerator and denominator of Fraction(p, q), q != 0: p/q in lowest terms, sign on the numerator."""
    g = gcd(p, q) if q > 0 else -gcd(p, q)
    return p // g, q // g


def _draw_fraction(rng: random.Random, span: int) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 3))


def sample_cm(n: int, seed: int) -> CMQuadruple:
    """A rank-1 Calogero-Moser point with X diagonal, reproducible from the seed.

    X = diag(x_1..x_n) with distinct entries, i_k j_k = 1, off-diagonal
    Y_kl = i_k j_l / (x_k - x_l), free diagonal of Y.  Collisions in the
    diagonal draw are rejected and redrawn from the same stream.  ``n`` above
    :data:`MAX_SAMPLE_N` is refused with ``ValueError``.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > MAX_SAMPLE_N:
        raise ValueError(f"n must be <= {MAX_SAMPLE_N}, got {n}")
    rng = random.Random(seed)
    span = max(6, 3 * n)
    xs: list[Fraction] = []
    while len(xs) < n:
        c = _draw_fraction(rng, span)
        if c not in xs:
            xs.append(c)
    ivals = []
    while len(ivals) < n:
        c = _draw_fraction(rng, 4)
        if c != 0:
            ivals.append(c)
    jvals = [1 / c for c in ivals]
    ydiag = [_draw_fraction(rng, 4) for _ in range(n)]
    yrows = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        for l in range(n):
            if k == l:
                yrows[k][l] = ydiag[k]
            else:
                yrows[k][l] = ivals[k] * jvals[l] / (xs[k] - xs[l])
    X = Matrix.from_rows([[xs[k] if k == l else 0 for l in range(n)] for k in range(n)])
    Y = Matrix.from_rows(yrows)
    i = Matrix.column(ivals)
    j = Matrix.row_vector(jvals)
    return CMQuadruple(X, Y, i, j)
