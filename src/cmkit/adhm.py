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
from dataclasses import dataclass
from fractions import Fraction

from .linalg import (
    Field,
    Matrix,
    ShapeError,
    commutator,
    kernel_basis,
    rank,
)


@dataclass(frozen=True)
class CMQuadruple:
    """Matrices (X, Y, i, j); a point of the linear-algebra model of CM_n."""

    X: Matrix
    Y: Matrix
    i: Matrix
    j: Matrix

    def __post_init__(self) -> None:
        n = self.X.rows
        if self.X.cols != n or self.Y.rows != n or self.Y.cols != n:
            raise ShapeError("X and Y must be square of equal size")
        if n < 1:
            raise ShapeError("need n >= 1")
        r = self.i.cols
        if r < 1 or self.i.rows != n or self.j.rows != r or self.j.cols != n:
            raise ShapeError(f"framing blocks must be {n}x{r} and {r}x{n}")
        fields = {self.X.field, self.Y.field, self.i.field, self.j.field}
        if len(fields) != 1:
            raise ShapeError("all four matrices must share one field")

    @property
    def n(self) -> int:
        return self.X.rows

    @property
    def r(self) -> int:
        return self.i.cols

    @property
    def field(self) -> Field:
        return self.X.field


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


class _SpanTracker:
    """Incremental row space: echelonized basis with exact pivot bookkeeping."""

    def __init__(self, dim: int, field: Field) -> None:
        self.dim = dim
        self.field = field
        self.rows: list[list] = []
        self.pivots: list[int] = []

    def add(self, vec: list) -> bool:
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            f = v[p]
            if not self.field.is_zero(f):
                for c in range(self.dim):
                    if row[c] != 0:
                        v[c] = v[c] - f * row[c]
        for p in range(self.dim):
            if not self.field.is_zero(v[p]):
                inv = 1 / v[p]
                v = [inv * a for a in v]
                v[p] = self.field.one
                self.rows.append(v)
                self.pivots.append(p)
                return True
        return False

    @property
    def rank(self) -> int:
        return len(self.rows)


def _closure_rank(seed_columns: list[list], operators: list[Matrix], n: int, field: Field) -> int:
    """Rank of the smallest operator-invariant subspace containing the seeds."""
    tracker = _SpanTracker(n, field)
    frontier = []
    for v in seed_columns:
        if tracker.add(v):
            frontier.append(v)
    for _ in range(n):
        if tracker.rank == n or not frontier:
            break
        new_frontier = []
        for op in operators:
            for v in frontier:
                w = [sum((op[a, b] * v[b] for b in range(n)), field.zero) for a in range(n)]
                if tracker.add(w):
                    new_frontier.append(w)
        frontier = new_frontier
    return tracker.rank


def is_stable(q: CMQuadruple) -> bool:
    """True iff the columns of i generate the whole space under X and Y."""
    seeds = [list(q.i.col(k)) for k in range(q.r)]
    return _closure_rank(seeds, [q.X, q.Y], q.n, q.field) == q.n


def word_invariants(q: CMQuadruple, max_len: int) -> list[tuple[str, object]]:
    """Conjugation invariants: tr(W) and tr(j W i) for words W in {X, Y}.

    Traces run over words of length 1..max_len, pairings over 0..max_len
    (the empty word gives tr(j i)).  Labels are ``tr(W)`` and ``j·W·i``; the
    separating power of a fixed cutoff is heuristic.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    letters = {"X": q.X, "Y": q.Y}
    traces: list[tuple[str, object]] = []
    pairings: list[tuple[str, object]] = []
    # Words of one length in lexicographic order, each product I @ a @ b ...
    # extended from its prefix's.
    level = [("", Matrix.identity(q.n, q.field))]
    for length in range(max_len + 1):
        if length:
            level = [(word + ch, w @ letters[ch]) for word, w in level for ch in "XY"]
            traces.extend((f"tr({word})", w.trace()) for word, w in level)
        pairings.extend((f"j·{word}·i" if word else "j·i", (q.j @ w @ q.i).trace()) for word, w in level)
    return traces + pairings


def _monomials(degree_bound: int) -> list[tuple[int, int]]:
    """Bivariate monomial exponents (a, b) with a+b <= bound, graded, x first."""
    mons = []
    for total in range(degree_bound + 1):
        for a in range(total, -1, -1):
            mons.append((a, total - a))
    return mons


@dataclass(frozen=True)
class HilbertIdeal:
    """Kernel of the evaluation map f |-> f(X, Y) i on bounded-degree polynomials."""

    monomials: tuple[tuple[int, int], ...]
    basis: tuple[dict[tuple[int, int], object], ...]
    quotient_dim: int
    degree_bound: int


def poly_str(poly: dict[tuple[int, int], object]) -> str:
    parts = []
    for (a, b), c in sorted(poly.items(), key=lambda t: (t[0][0] + t[0][1], -t[0][0])):
        mono = "".join(
            [f"x^{a}" if a > 1 else "x" if a == 1 else "",
             f"y^{b}" if b > 1 else "y" if b == 1 else ""]
        ) or "1"
        if c == 1 and mono != "1":
            parts.append(mono)
        elif c == -1 and mono != "1":
            parts.append(f"-{mono}")
        else:
            parts.append(f"{c}" if mono == "1" else f"{c}{mono}")
    out = " + ".join(parts).replace("+ -", "- ")
    return out or "0"


def hilbert_ideal(q: CMQuadruple, degree_bound: int | None = None) -> HilbertIdeal:
    """Ideal of the length-n quotient of C[x, y] attached to a commuting stable pair.

    Requires XY = YX, j = 0, r = 1 and stability (i cyclic).  For
    degree_bound >= n the quotient dimension is exactly n.
    """
    if degree_bound is not None and degree_bound < 0:
        raise ValueError(f"degree bound must be >= 0, got {degree_bound}")
    if q.r != 1:
        raise ValueError("hilbert_ideal needs framing rank 1")
    if not q.j.is_zero():
        raise ValueError("hilbert_ideal needs j = 0")
    if not commutator(q.X, q.Y).is_zero():
        raise ValueError("hilbert_ideal needs commuting X and Y")
    if not is_stable(q):
        raise ValueError("hilbert_ideal needs a stable quadruple (cyclic framing)")
    d = q.n if degree_bound is None else degree_bound
    mons = _monomials(d)
    # Powers X^a Y^b i, built incrementally along x then y.
    x_pows = [Matrix.identity(q.n, q.field)]
    y_pows = [Matrix.identity(q.n, q.field)]
    for _ in range(d):
        x_pows.append(x_pows[-1] @ q.X)
        y_pows.append(y_pows[-1] @ q.Y)
    columns = [x_pows[a] @ y_pows[b] @ q.i for a, b in mons]
    flat = []
    for row_idx in range(q.n):
        for col in columns:
            flat.append(col[row_idx, 0])
    eval_matrix = Matrix(q.n, len(mons), tuple(flat), q.field)
    kern = kernel_basis(eval_matrix)
    basis = []
    for v in kern:
        poly = {mons[k]: v[k, 0] for k in range(len(mons)) if not q.field.is_zero(v[k, 0])}
        basis.append(poly)
    return HilbertIdeal(tuple(mons), tuple(basis), rank(eval_matrix), d)


def _draw_fraction(rng: random.Random, span: int) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 3))


def sample_cm(n: int, seed: int) -> CMQuadruple:
    """A rank-1 Calogero-Moser point with X diagonal, reproducible from the seed.

    X = diag(x_1..x_n) with distinct entries, i_k j_k = 1, off-diagonal
    Y_kl = i_k j_l / (x_k - x_l), free diagonal of Y.  Collisions in the
    diagonal draw are rejected and redrawn from the same stream.
    """
    if n < 1:
        raise ValueError("need n >= 1")
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
