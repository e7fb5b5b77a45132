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
from typing import Iterable, NamedTuple

from .linalg import (
    Block,
    Blocks,
    Matrix,
    _closure_rank,
    _kernel_pairs,
    _rows,
    _rref,
    _trace_product,
    commutator,
    format_terms,
    kernel_basis,
    power,
)
from .linalg import rank  # noqa: F401  (bench/spans.py wraps adhm.rank)


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
# step of the cutoff.  Each rational word costs O(n^2) beyond the 2^(h+1) - 2
# n x n products of the words up to h = ceil(L/2) (62 at L = 10); the complex
# field forms every word as one n x n product, so its work doubles too.
MAX_WORD_LEN = 10
# sample draws and reports n^2 entries; 64 is four times the largest size targeted, 16.
MAX_SAMPLE_N = 64
# A degree bound d gives (d+1)(d+2)/2 monomials and about as many kernel
# vectors; the default bound n is not capped, since the document limits it.
MAX_HILBERT_DEGREE = 32


def word_invariants(q: CMQuadruple, max_len: int) -> list[tuple[str, object]]:
    """Conjugation invariants: tr(W) and tr(j W i) for words W in {X, Y}.

    Traces run over words of length 1..max_len, pairings over 0..max_len
    (the empty word gives tr(j i)).  Labels are ``tr(W)`` and ``j·W·i``; the
    separating power of a fixed cutoff is heuristic.  ``max_len`` above
    :data:`MAX_WORD_LEN` is refused with ``ValueError``.

    Only the words of length <= h are formed as matrices, by prefix
    products, h = ceil(max_len / 2) in the rational field.  A longer word is
    split as W = U V with |U| = h, and tr(W) = tr(U V) and j W i =
    tr((j U)(V i)) are summed without forming W, O(n^2) each.  The complex
    field takes h = max_len, forming every word, so its float sums keep the
    association of the prefix products.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if max_len > MAX_WORD_LEN:
        raise ValueError(f"max_len must be <= {MAX_WORD_LEN}, got {max_len}")
    h = -(-max_len // 2) if q.field.is_rational else max_len
    letters = {"X": q.X, "Y": q.Y}
    traces: list[tuple[str, object]] = []
    pairings: list[tuple[str, object]] = []
    tails: dict[int, list] = {}  # by length, the words V of length 1..max_len - h with V i
    # Words of one length in lexicographic order, each product I @ a @ b ...
    # extended from its prefix's, with j W beside it.
    words = [("", Matrix.identity(q.n, q.field))]
    for length in range(h + 1):
        if length:
            words = [(word + ch, w @ letters[ch]) for word, w in words for ch in "XY"]
            traces.extend((f"tr({word})", w.trace()) for word, w in words)
        heads = [(word, w, q.j @ w) for word, w in words]
        pairings.extend((f"j·{word}·i" if word else "j·i", _trace_product(jw, q.i)) for word, _, jw in heads)
        if 0 < length <= max_len - h:
            tails[length] = [(word, w, w @ q.i) for word, w in words]
    # heads now holds the words U of length h; each longer word is U V.
    for length in range(h + 1, max_len + 1):
        for u, uw, ju in heads:
            traces.extend((f"tr({u}{v})", _trace_product(uw, vw)) for v, vw, _ in tails[length - h])
            pairings.extend((f"j·{u}{v}·i", _trace_product(ju, vi)) for v, _, vi in tails[length - h])
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


def poly_str(poly: Iterable[tuple[tuple[int, int], object]]) -> str:
    """The polynomial sum of c x^a y^b over the ((a, b), c) pairs, graded by a + b and then by descending a."""
    terms = sorted(poly, key=lambda t: (t[0][0] + t[0][1], -t[0][0]))
    return format_terms((c, power("x", a) + power("y", b)) for (a, b), c in terms)


def hilbert_ideal(q: CMQuadruple, degree_bound: int | None = None) -> HilbertIdeal:
    """Ideal of the length-n quotient of C[x, y] attached to a commuting stable pair.

    Requires XY = YX, j = 0, r = 1 and stability (i cyclic).  For
    degree_bound >= n the quotient dimension is exactly n.  A degree bound
    above :data:`MAX_HILBERT_DEGREE` is refused with ``ValueError``.

    A bound d gives (d+1)(d+2)/2 columns X^a Y^b i.  In the rational field
    each is X or Y applied to an earlier column, n^2 work; the complex field
    keeps its d powers of X and of Y and makes each column from them, n^3
    work per column.  The rational columns go into one integer elimination
    as the rows of [X^a Y^b i | ...], and each generator's nonzero terms are
    read off the pivot rows as (p, q) pairs, one Fraction per term; the
    complex field takes :func:`kernel_basis` of the evaluation matrix.
    """
    if degree_bound is not None and degree_bound < 0:
        raise ValueError(f"degree bound must be >= 0, got {degree_bound}")
    if degree_bound is not None and degree_bound > MAX_HILBERT_DEGREE:
        raise ValueError(f"degree bound must be <= {MAX_HILBERT_DEGREE}, got {degree_bound}")
    if q.r != 1:
        raise ValueError("hilbert_ideal needs framing rank 1")
    if not q.j.is_zero():
        raise ValueError("hilbert_ideal needs j = 0")
    if not commutator(q.X, q.Y).is_zero():
        raise ValueError("hilbert_ideal needs commuting X and Y")
    if not is_stable(q):
        raise ValueError("hilbert_ideal needs a stable quadruple (cyclic framing)")
    d = q.n if degree_bound is None else degree_bound
    # _monomials lists the monomials in poly_str order, so each polynomial's terms come out in it.
    mons = _monomials(d)
    if q.field.is_rational:
        # The columns X^a Y^b i, each one matrix-vector product from an earlier one.
        cols: dict[tuple[int, int], Matrix] = {}
        for a, b in mons:
            cols[a, b] = q.X @ cols[a - 1, b] if a else q.Y @ cols[0, b - 1] if b else q.i
        kern = _kernel_pairs(*_rref(_rows(*cols.values()), q.field), len(mons), q.field)
        basis = tuple(tuple((m, Fraction(*c)) for m, c in zip(mons, v) if c[0]) for v in kern)
    else:
        # (X^a Y^b) i from the powers, the association the complex reports were recorded with.
        x_pows = [Matrix.identity(q.n, q.field)]
        y_pows = [Matrix.identity(q.n, q.field)]
        for _ in range(d):
            x_pows.append(x_pows[-1] @ q.X)
            y_pows.append(y_pows[-1] @ q.Y)
        kern = kernel_basis(Matrix.hstack(*[x_pows[a] @ y_pows[b] @ q.i for a, b in mons]))
        basis = tuple(tuple((m, c) for m, c in zip(mons, v.entries) if not q.field.is_zero(c)) for v in kern)
    return HilbertIdeal(tuple(mons), basis, len(mons) - len(kern), d)


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
