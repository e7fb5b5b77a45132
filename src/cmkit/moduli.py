"""Framed torsion sheaves (X, i): support, endomorphisms, indecomposability.

A pair (X, i) with X n x n and i n x r models a length-n torsion sheaf
Q = coker(x - X) on the line together with a framing map with matrix i.
Morphisms of framed pairs are pairs (s, g) with g X = X g and g i = i s;
the sheaf is indecomposable exactly when this endomorphism algebra is local.

One kernel basis of the End system answers both structural questions.  The
CM fiber over (X, i) is a torsor whose only obstruction is a trace, and the
obstruction space is the part of End with s = 0 (:func:`cm_support_check`).
The radical of End is the kernel of the trace form of the faithful
representation (s, g) |-> diag(g, s) (:func:`is_indecomposable`).
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
from .koszul import solve_cm_fiber  # unused here but bench/spans.py wraps moduli.solve_cm_fiber

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
    componentwise composition (s, g)(s', g') = (s s', g g').  In rational
    mode every basis element is checked against both defining equations.
    """
    out = []
    for v in kernel_basis(_end_system(fs)):
        g, s = unvec(v, fs.n, fs.r, fs.r)
        out.append((s, g))
    X, i = fs.X, fs.i
    if fs.field.is_rational and any(g @ X != X @ g or g @ i != i @ s for s, g in out):
        raise AssertionError("endomorphism basis element fails g X = X g or g i = i s")
    return out


def _faithful_trace_form(fs: FramedTorsionSheaf, ends: list[tuple[Matrix, Matrix]]) -> Matrix:
    """The form tr(g_a g_b) + tr(s_a s_b) on an End basis, as one matrix product.

    Row a lists g_a and the transpose of s_a row-major; column b is vec(g_b, s_b),
    which lists g_b column-major and s_b row-major.
    """
    m, width = len(ends), fs.n * fs.n + fs.r * fs.r
    left = tuple(x for s, g in ends for x in (*g.entries, *s.transpose().entries))
    cols = [vec(g, s) for s, g in ends]
    right = tuple(c[k] for k in range(width) for c in cols)
    return Matrix(m, width, left, fs.field) @ Matrix(width, m, right, fs.field)


def is_indecomposable(fs: FramedTorsionSheaf, factors=None, ends=None):
    """Locality test for the endomorphism algebra of (X, i).

    In characteristic zero the radical of a finite-dimensional algebra A is
    the kernel of the trace form tr_V(ab) of any faithful representation V,
    not only the regular one (Dickson's criterion, as used by Friedl and
    Ronyai, STOC 1985).  Nilpotent ideals have traceless products, so the
    radical lies in the kernel.  Every simple module of A occurs in V, or a
    lifted block idempotent would act nilpotently on the faithful V; so on
    each simple block of A / rad the form is a positive multiple of the
    reduced trace form, which is nondegenerate.  Hence rank tr_V = dim A/rad.
    Here V carries (s, g) |-> diag(g, s), so the form is
    tr(g_a g_b) + tr(s_a s_b), one product of an m x (n^2 + r^2) and an
    (n^2 + r^2) x m matrix.

    The sheaf is declared indecomposable iff dim(End / radical) = 1.  When
    the quotient has dimension > 1 but char_poly(X) does not split over the
    rationals, the quotient may be a field hiding a geometric decomposition,
    so the answer is ``INCONCLUSIVE`` rather than a guess.  Exact mode only.
    ``factors`` is ``support(fs)`` and ``ends`` is ``endomorphisms(fs)`` when
    the caller already has them; otherwise they are computed when needed.
    """
    if not fs.field.is_rational:
        raise ValueError("is_indecomposable requires the exact rational field")
    if ends is None:
        ends = endomorphisms(fs)
    semisimple_dim = rank(_faithful_trace_form(fs, ends))
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


def cm_support_check(fs: FramedTorsionSheaf, ends=None) -> SupportReport:
    """Feasibility and affine dimension of the CM fiber over (X, i).

    The fiber is the solution set of L(Y, j) = -I, where
    L(Y, j) = X Y - Y X - i j maps gl_n + Hom(C^n, C^r) to gl_n.  Under the
    trace pairing the adjoint of L is Z |-> (Z X - X Z, Z i), so coker L is
    dual to the space of Z with [Z, X] = 0 and Z i = 0: exactly the End
    elements (s, g) = (0, Z).  The fiber is nonempty iff tr Z = 0 on that
    space, and then it has dimension n r + dim{Z}.

    Given an End basis ``ends`` = [(s_a, g_a)] with m elements, let S be the
    m x r^2 matrix of the s_a and t the column of tr g_a.  The Z are the
    combinations with sum c_a s_a = 0, so the fiber is nonempty iff
    rank(S | t) = rank(S), and its dimension is n r + m - rank(S).
    ``ends`` is ``endomorphisms(fs)`` when the caller already has it.
    """
    if ends is None:
        ends = endomorphisms(fs)
    m, r2 = len(ends), fs.r * fs.r
    s_part = Matrix(m, r2, tuple(x for s, _ in ends for x in s.entries), fs.field)
    s_rank = rank(s_part)
    with_trace = s_part.hstack(Matrix(m, 1, tuple(g.trace() for _, g in ends), fs.field))
    if rank(with_trace) != s_rank:
        return SupportReport(False, None)
    return SupportReport(True, fs.n * fs.r + m - s_rank)
