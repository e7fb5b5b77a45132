"""The dictionary between CM quadruples and Koszul-type triples on the line.

A triple (X, i, Y, j(x)) with j(x) = sum_k x^k j_k a polynomial covector
satisfies the commuting square when

    I + XY - YX = sum_k X^k i j_k,

the right-hand side being the only type-correct matrix reading of "i j(X)"
through the framing map f(x) |-> f(X) i.  A homotopy h(x) acts by

    (X, Y, i, j(x))  |->  (X, Y + sum_k X^k i h_k, i, j(x) + x h(x) - h(x) X),

preserves the square, and every valid triple is homotopic to a unique
quadruple with constant j; ``normalize`` computes that representative by
top-degree-down back-substitution.

The fiber of CM points over a fixed framed sheaf (X, i) is the affine
solution set of [X, Y] - i j + I = 0 in (Y, j): a particular solution plus
the span of the homogeneous solutions [X, Y'] = i j'.  It may be empty.
``_fiber_system`` writes the n^2 equations as rows [A | -vec(I)], one list
each, and ``solve_cm_fiber`` hands them to ``linalg._solve_rows``, the
solver body ``solve_affine`` runs after its shape checks, so the mostly
zero system is never a ``Matrix``.  A rational row goes there as its
integer numerators over the lcm of its own denominators.

Only :func:`from_cm` and :func:`normalize` meet a :class:`CMQuadruple`, so
they alone import :mod:`cmkit.adhm`, and ``classify``, ``fiber-solve`` and
``homotopy`` never load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .linalg import (
    Block,
    Blocks,
    Matrix,
    ShapeError,
    Value,
    _numerators,
    _set,
    _solve_rows,
    add_sandwich,
    commutator,
    unvec,
)
from .linalg import solve_affine  # noqa: F401  (tracer sites: bench/spans.py wraps them)

if TYPE_CHECKING:
    from .adhm import CMQuadruple


class NotCMPoint(ValueError):
    def __init__(self, residual: Matrix) -> None:
        super().__init__(f"quadruple violates the CM relation; residual {residual}")
        self.residual = residual


class InvalidKoszulTriple(ValueError):
    def __init__(self, residual: Matrix) -> None:
        super().__init__(f"commuting square fails; residual {residual}")
        self.residual = residual


class PolyCovector(Value):
    """j(x) = sum_k x^k j_k with r x n matrix coefficients, trailing zeros trimmed.

    Immutable; two covectors are equal when their coefficients are.
    """

    __slots__ = _FIELDS = ("coeffs",)

    def __init__(self, coeffs: tuple[Matrix, ...]) -> None:
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ShapeError("need at least one coefficient")
        shape = (coeffs[0].rows, coeffs[0].cols)
        if any((c.rows, c.cols) != shape for c in coeffs):
            raise ShapeError("all coefficients must share one shape")
        if len(coeffs) > 1 and coeffs[-1].is_zero():
            raise ShapeError("leading coefficient must be nonzero (trim first)")
        _set(self, "coeffs", coeffs)

    @staticmethod
    def from_coeffs(coeffs: list[Matrix]) -> "PolyCovector":
        trimmed = list(coeffs)
        while len(trimmed) > 1 and trimmed[-1].is_zero():
            trimmed.pop()
        return PolyCovector(tuple(trimmed))

    @staticmethod
    def constant(j: Matrix) -> "PolyCovector":
        return PolyCovector((j,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_constant(self) -> bool:
        return self.degree == 0

    def coeff(self, k: int) -> Matrix:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        c = self.coeffs[0]
        return Matrix.zeros(c.rows, c.cols, c.field)


def framed_poly_action(X: Matrix, i: Matrix, pc: PolyCovector) -> Matrix:
    """sum_k X^k i pc_k: the n x n matrix a polynomial covector induces through the framing."""
    n = X.rows
    acc = Matrix.zeros(n, n, X.field)
    xk = Matrix.identity(n, X.field)
    for k, c in enumerate(pc.coeffs):
        if k > 0:
            xk = xk @ X
        acc = acc + xk @ i @ c
    return acc


class KoszulTriple(Blocks):
    """Diagram data (X, i, Y, j(x)); valid iff check_square vanishes."""

    BLOCKS = (Block("X", "nn"), Block("i", "nr"), Block("Y", "nn"), Block("j", "rn", "covector"))


def from_cm(q: CMQuadruple) -> KoszulTriple:
    """A CM point becomes a triple with constant covector; raises off the CM locus."""
    from .adhm import cm_residual

    res = cm_residual(q)
    if not res.is_zero():
        raise NotCMPoint(res)
    return KoszulTriple(q.X, q.i, q.Y, PolyCovector.constant(q.j))


def check_square(kt: KoszulTriple) -> Matrix:
    """I + XY - YX - sum_k X^k i j_k; zero iff the triple is valid."""
    eye = Matrix.identity(kt.n, kt.field)
    return eye + commutator(kt.X, kt.Y) - framed_poly_action(kt.X, kt.i, kt.j)


def apply_homotopy(kt: KoszulTriple, h: PolyCovector) -> KoszulTriple:
    """Act by the homotopy h: shifts Y through the framing and re-dresses j(x)."""
    if h.coeffs[0].rows != kt.r or h.coeffs[0].cols != kt.n:
        raise ShapeError("homotopy coefficients must be r x n")
    new_y = kt.Y + framed_poly_action(kt.X, kt.i, h)
    top = max(kt.j.degree, h.degree + 1)
    new_coeffs = []
    for k in range(top + 1):
        c = kt.j.coeff(k)
        if k >= 1:
            c = c + h.coeff(k - 1)
        c = c - h.coeff(k) @ kt.X
        new_coeffs.append(c)
    return KoszulTriple(kt.X, kt.i, new_y, PolyCovector.from_coeffs(new_coeffs))


def normalizing_homotopy(kt: KoszulTriple) -> PolyCovector:
    """The homotopy that kills every positive-degree coefficient of j(x).

    Back-substitution from the top: h_{d-1} = -j_d, then
    h_{k-1} = h_k X - j_k down to k = 1.  Only this order is consistent with
    the top coefficient having no successor.
    """
    d = kt.j.degree
    zero = Matrix.zeros(kt.r, kt.n, kt.field)
    if d == 0:
        return PolyCovector.constant(zero)
    hs: list[Matrix] = [zero] * d
    hs[d - 1] = -kt.j.coeff(d)
    for k in range(d - 1, 0, -1):
        hs[k - 1] = hs[k] @ kt.X - kt.j.coeff(k)
    return PolyCovector.from_coeffs(hs)


def normalize(kt: KoszulTriple) -> CMQuadruple:
    """The unique CM quadruple homotopic to a valid triple.

    In the rational field the result is certified: it must satisfy the CM
    relation exactly, or ``AssertionError`` reports a defect.
    """
    from .adhm import CMQuadruple, cm_residual

    res = check_square(kt)
    if not res.is_zero():
        raise InvalidKoszulTriple(res)
    h = normalizing_homotopy(kt)
    flat = apply_homotopy(kt, h)
    if not flat.j.is_constant:
        raise AssertionError("normalizing homotopy failed to flatten j(x)")
    q = CMQuadruple(flat.X, flat.Y, flat.i, flat.j.coeff(0))
    if kt.field.is_rational and not cm_residual(q).is_zero():
        raise AssertionError("normalized quadruple fails the CM relation")
    return q


class FramedTorsionSheaf(Blocks):
    """A point of the perverse symmetric power: matrices (X, i)."""

    BLOCKS = (Block("X", "nn"), Block("i", "nr"))


class FiberSolution(NamedTuple):
    """The CM fiber over (X, i) as an affine space: particular + span(kernel)."""

    X: Matrix
    i: Matrix
    particular_Y: Matrix
    particular_j: Matrix
    kernel_basis: tuple[tuple[Matrix, Matrix], ...]

    @property
    def dimension(self) -> int:
        return len(self.kernel_basis)


def _fiber_system(X: Matrix, i: Matrix) -> list[list]:
    """The rows [A | -vec(I)] of [X, Y] - i j + I = 0, A the operator (Y, j) |-> X Y - Y X - i j on vec(Y, j).

    Equation (p, q) is row p n + q, a list of its own.  Rational rows start
    from the int 0, as the End rows of ``moduli._end_rows`` do, and
    :func:`linalg.add_sandwich` adds the Fraction coefficients of X and i
    into them, so a row holds a Fraction only where a term was written; its
    right-hand side is the int -1 or 0.  Complex rows sum from ``0j``, and
    their right-hand sides are ``-(1+0j)`` and ``-(0j)``, the entries of the
    negated identity.
    """
    n, r, field = X.rows, i.cols, X.field
    zero, one = (0, 1) if field.is_rational else (field.zero, field.one)
    eye = [one if k == l else zero for k in range(n) for l in range(n)]
    ncols = n * n + r * n
    rows = [[zero] * ncols + [-eye[p * n + q]] for p in range(n) for q in range(n)]
    add_sandwich(rows, X.entries, eye, n, n, eq_row=0, unknown_col=0)
    add_sandwich(rows, eye, (-X).entries, n, n, eq_row=0, unknown_col=0)
    add_sandwich(rows, (-i).entries, eye, r, n, eq_row=0, unknown_col=n * n)
    return rows


def solve_cm_fiber(fs: FramedTorsionSheaf) -> FiberSolution | None:
    """Solve [X, Y] - i j + I = 0 for (Y, j) over the sheaf (X, i); None when the fiber is empty.

    Emptiness is a meaningful answer: the framed sheaf then lies outside the
    support of the CM family.  The kernel basis spans the homogeneous
    solutions [X, Y'] = i j'.  The rows of :func:`_fiber_system` go straight
    to ``linalg._solve_rows``, the body of ``solve_affine``, with no
    :class:`Matrix` of the system between them; a rational row is first made
    integer over the lcm of its own denominators (``linalg._numerators``).
    """
    X, i, n, r = fs.X, fs.i, fs.n, fs.r
    rows = _fiber_system(X, i)
    if fs.field.is_rational:
        rows = [_numerators(row)[0] for row in rows]
    sol = _solve_rows(rows, n * n + r * n, fs.field)
    if sol is None:
        return None
    py, pj = unvec(sol.particular, n, r, n)
    kern = tuple(unvec(v, n, r, n) for v in sol.kernel_basis)
    return FiberSolution(X, i, py, pj, kern)


def torsor_action(sol: FiberSolution, coefficients: list) -> tuple[Matrix, Matrix]:
    """particular + sum_m t_m (kernel element m); always lands on the CM fiber."""
    if len(coefficients) != sol.dimension:
        raise ShapeError(f"need {sol.dimension} coefficients, got {len(coefficients)}")
    y, j = sol.particular_Y, sol.particular_j
    for t, (yk, jk) in zip(coefficients, sol.kernel_basis):
        y = y + t * yk
        j = j + t * jk
    return y, j
