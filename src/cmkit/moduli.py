"""Framed torsion sheaves (X, i): support, endomorphisms, indecomposability.

A pair (X, i) with X n x n and i n x r models a length-n torsion sheaf
Q = coker(x - X) on the line together with a framing map with matrix i.
Morphisms of framed pairs are pairs (s, g) with g X = X g and g i = i s;
the sheaf is indecomposable exactly when this endomorphism algebra is local.
The support of the CM family over these pairs is probed by the linear fiber
solve from :mod:`cmkit.koszul`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import (  # solve_affine is unused here but bench/spans.py wraps moduli.solve_affine
    Field,
    Matrix,
    ShapeError,
    add_sandwich,
    char_poly,
    kernel_basis,
    rank,
    solve_affine,
    unvec,
    vec,
)
from .adhm import _closure_rank
from .koszul import solve_cm_fiber

INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class FramedTorsionSheaf:
    """A point of the perverse symmetric power: matrices (X, i)."""

    X: Matrix
    i: Matrix

    def __post_init__(self) -> None:
        if self.X.rows != self.X.cols:
            raise ShapeError("X must be square")
        if self.i.rows != self.X.rows or self.i.cols < 1:
            raise ShapeError("framing block must be n x r")
        if self.X.field != self.i.field:
            raise ShapeError("mixed fields")

    @property
    def n(self) -> int:
        return self.X.rows

    @property
    def r(self) -> int:
        return self.i.cols

    @property
    def field(self) -> Field:
        return self.X.field


def support(fs: FramedTorsionSheaf):
    """Support of the sheaf: factorization of char_poly(X).

    Rational mode returns [(coeffs ascending, multiplicity)] with monic
    irreducible factors over the rationals, sorted by (length, coeffs), from
    :mod:`cmkit.factor`: Yun's square-free decomposition, then Zassenhaus
    (factor mod a prime, Hensel-lift, recombine by trial division).  The
    worst case is exponential in the number r of factors mod that prime, up
    to 2^(r-1) trial subsets, as in sympy's Zassenhaus; polynomials that are
    irreducible over Q but split into many factors mod every prime
    (Swinnerton-Dyer polynomials) reach it.  The factors are checked to
    multiply back to char_poly(X) exactly.

    Complex mode returns [(root, multiplicity)] with numeric roots clustered
    by the field tolerance.
    """
    cp = char_poly(fs.X)
    if fs.field.is_rational:
        # imported here so that commands which never factor do not load (or compile) the module
        from .factor import factor_rational, multiply_out

        out = factor_rational(cp)
        if multiply_out(out) != cp:
            raise AssertionError("support factors do not multiply back to char_poly(X)")
        out.sort(key=lambda t: (len(t[0]), t[0]))
        return out
    import numpy as np

    roots = np.roots(list(reversed([complex(c) for c in cp])))
    tol = max(fs.field.tolerance, 1e-12)
    clusters: list[list[complex]] = []
    for z in sorted(roots, key=lambda w: (w.real, w.imag)):
        for cl in clusters:
            if abs(cl[0] - z) <= tol * 10 * max(1.0, abs(cl[0])):
                cl.append(complex(z))
                break
        else:
            clusters.append([complex(z)])
    return [(sum(cl) / len(cl), len(cl)) for cl in clusters]


def factor_str(coeffs: tuple[Fraction, ...]) -> str:
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mono = f"x^{k}" if k > 1 else "x" if k == 1 else "1"
        if c == 1 and k > 0:
            parts.append(mono)
        elif c == -1 and k > 0:
            parts.append(f"-{mono}")
        else:
            parts.append(f"{c}" if k == 0 else f"{c}{mono}")
    return " + ".join(parts).replace("+ -", "- ") or "0"


def framing_surjective(fs: FramedTorsionSheaf) -> bool:
    """True iff the columns of i generate the space under X alone."""
    seeds = [list(fs.i.col(k)) for k in range(fs.r)]
    return _closure_rank(seeds, [fs.X], fs.n, fs.field) == fs.n


def _end_system(fs: FramedTorsionSheaf) -> Matrix:
    """The operator (g, s) |-> (g X - X g, g i - i s) on vec(g, s), equations row-major."""
    n, r, field = fs.n, fs.r, fs.field
    eye_n, eye_r = Matrix.identity(n, field), Matrix.identity(r, field)
    ncols = n * n + r * r
    neqs = n * n + n * r
    flat = [field.zero] * (neqs * ncols)
    add_sandwich(flat, ncols, eye_n, fs.X, eq_row=0, unknown_col=0, square=True)
    add_sandwich(flat, ncols, fs.X, eye_n, eq_row=0, unknown_col=0, square=True, negate=True)
    add_sandwich(flat, ncols, eye_n, fs.i, eq_row=n * n, unknown_col=0, square=True)
    add_sandwich(flat, ncols, fs.i, eye_r, eq_row=n * n, unknown_col=n * n, square=False, negate=True)
    return Matrix(neqs, ncols, tuple(flat), field)


def endomorphisms(fs: FramedTorsionSheaf) -> list[tuple[Matrix, Matrix]]:
    """Basis of the algebra {(s, g) : g X = X g, g i = i s}.

    Unknowns are vectorized g column-major then s row-major, so the returned
    basis is deterministic.  The algebra is unital and closed under the
    componentwise composition (s, g)(s', g') = (s s', g g').
    """
    out = []
    for v in kernel_basis(_end_system(fs)):
        g, s = unvec(v, fs.n, fs.r, fs.r)
        out.append((s, g))
    return out


def _end_coords(supports: list[list[tuple[int, Fraction]]], target: list) -> list:
    """Coordinates of ``target`` in a kernel basis given by each vector's nonzero (index, entry).

    A kernel basis from an RREF ends each vector in a 1 at its own free
    column, where every other basis vector is zero, so the coordinates are
    the entries of ``target`` at those columns.  The recombination must give
    ``target`` back, or it lies outside the span.
    """
    coords = [target[sup[-1][0]] for sup in supports]
    recon = [0] * len(target)
    for c, sup in zip(coords, supports):
        if c != 0:
            for t, x in sup:
                recon[t] += c * x
    if recon != target:
        raise AssertionError("endomorphism product escaped the algebra")
    return coords


def _trace_form(fs: FramedTorsionSheaf) -> Matrix:
    """Trace form tr(L_a L_b) of the regular representation L of End on its kernel basis.

    The product table holds the coordinates of each e_a e_b.  Since L is a
    representation, tr(L_a L_b) = tr(L_{e_a e_b}) = sum_c (e_a e_b)_c tr(L_c),
    and tr(L_c) is the sum of the coordinates (e_c e_t)_t, so the form takes
    O(m^3) scalar products and no m x m matrix.
    """
    kern = kernel_basis(_end_system(fs))
    basis = [unvec(v, fs.n, fs.r, fs.r) for v in kern]
    supports = [[(t, x) for t, x in enumerate(v.entries) if x != 0] for v in kern]
    table = [[_end_coords(supports, vec(g_a @ g_b, s_a @ s_b)) for g_b, s_b in basis] for g_a, s_a in basis]
    traces = [sum(row[t][t] for t in range(len(basis))) for row in table]
    return Matrix.from_rows(
        [[sum(x * tr for x, tr in zip(coords, traces) if x) for coords in row] for row in table], fs.field
    )


def is_indecomposable(fs: FramedTorsionSheaf, factors=None):
    """Locality test for the endomorphism algebra of (X, i).

    In characteristic zero the radical of a finite-dimensional associative
    algebra is the kernel of the trace form of the regular representation.
    The sheaf is declared indecomposable iff dim(End / radical) = 1.  When
    the quotient has dimension > 1 but char_poly(X) does not split over the
    rationals, the quotient may be a field hiding a geometric decomposition,
    so the answer is ``INCONCLUSIVE`` rather than a guess.  Exact mode only.
    ``factors`` is ``support(fs)`` when the caller already has it; otherwise
    it is computed when needed.
    """
    if not fs.field.is_rational:
        raise ValueError("is_indecomposable requires the exact rational field")
    semisimple_dim = rank(_trace_form(fs))
    if semisimple_dim == 1:
        return True
    if factors is None:
        factors = support(fs)
    splits = all(len(coeffs) == 2 for coeffs, _ in factors)
    if splits:
        return False
    return INCONCLUSIVE


@dataclass(frozen=True)
class SupportReport:
    in_support: bool
    fiber_dim: int | None


def cm_support_check(fs: FramedTorsionSheaf) -> SupportReport:
    """Feasibility and affine dimension of the CM fiber over (X, i)."""
    sol = solve_cm_fiber(fs.X, fs.i)
    if sol is None:
        return SupportReport(False, None)
    return SupportReport(True, sol.dimension)
