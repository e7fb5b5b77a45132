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

In rank one with a cyclic framing (i generates the space under X, which is
what :func:`framing_surjective` tests) End is the scalars: gX = Xg and
gi = is give g X^k i = X^k g i = X^k i s, so g K = K s for the invertible
K = [i, Xi, ..., X^(n-1) i], and g = s I.  The framed sheaf then has no
endomorphism but the scalars, as in Wilson's rank-one picture (Collisions
of Calogero-Moser particles and an adelic Grassmannian, Invent. Math. 133,
1998), and :func:`endomorphisms` answers without the End system.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .linalg import (
    Matrix,
    _closure_rank,
    add_sandwich,
    char_poly,
    format_terms,
    kernel_basis,
    power,
    rank,
    solve_affine,
    unvec,
)
from .koszul import FramedTorsionSheaf
from .koszul import solve_cm_fiber  # unused here but bench/spans.py wraps moduli.solve_cm_fiber

INCONCLUSIVE = "inconclusive"


def support(fs: FramedTorsionSheaf):
    """Support of the sheaf: factorization of char_poly(X).

    Rational mode returns [(coeffs ascending, multiplicity)] with monic
    irreducible factors over the rationals, sorted by (length, coeffs), from
    :mod:`cmkit.factor`: Yun's square-free decomposition over the integers,
    then Zassenhaus (factor mod a prime, with its roots there found by
    evaluation, lift the rational roots by Newton's iteration, Hensel-lift
    the other factors, recombine by trial division).
    A char_poly that splits over Q never reaches the Hensel tree.  The worst
    case is exponential in the number r of factors mod that prime that are
    not rational roots, up to 2^(r-1) trial subsets, as in sympy's
    Zassenhaus; polynomials that are irreducible over Q but split into many
    factors mod every prime (Swinnerton-Dyer polynomials) reach it.  The
    factorization over Q is unique, so the sorted list does not depend on
    the route.  The factors are checked to multiply back to char_poly(X)
    exactly.

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
    """The polynomial with ascending coefficients ``coeffs``, highest degree first, zero terms left out."""
    return format_terms(reversed([(c, power("x", k)) for k, c in enumerate(coeffs) if c != 0]))


def framing_surjective(fs: FramedTorsionSheaf) -> bool:
    """True iff the columns of i generate the space under X alone."""
    return _closure_rank(fs.i, [fs.X]) == fs.n


def _end_system(fs: FramedTorsionSheaf) -> Matrix:
    """The operator (g, s) |-> (g X - X g, g i - i s) on vec(g, s), equations row-major."""
    n, r, field = fs.n, fs.r, fs.field
    eye_n, eye_r = Matrix.identity(n, field), Matrix.identity(r, field)
    ncols = n * n + r * r
    neqs = n * n + n * r
    flat = [field.zero] * (neqs * ncols)
    add_sandwich(flat, ncols, eye_n, fs.X, eq_row=0, unknown_col=0, square=True)
    add_sandwich(flat, ncols, -fs.X, eye_n, eq_row=0, unknown_col=0, square=True)
    add_sandwich(flat, ncols, eye_n, fs.i, eq_row=n * n, unknown_col=0, square=True)
    add_sandwich(flat, ncols, -fs.i, eye_r, eq_row=n * n, unknown_col=n * n, square=False)
    return Matrix(neqs, ncols, tuple(flat), field)


def endomorphisms(fs: FramedTorsionSheaf, surjective=None) -> list[tuple[Matrix, Matrix]]:
    """Basis of the algebra {(s, g) : g X = X g, g i = i s}.

    Unknowns are vectorized g column-major then s row-major, so the returned
    basis is deterministic.  The algebra is unital and closed under the
    componentwise composition (s, g)(s', g') = (s s', g g').  In rational
    mode every basis element is checked against both defining equations, all
    at once: [g_1; ...; g_m] X against X [g_1 | ... | g_m], and the same for
    i and the s_a, four products in all.

    A rational sheaf of rank one whose framing is surjective has End = Q (1, I)
    (see the module docstring: g K = K s for the invertible Krylov matrix K,
    after Wilson), so the basis is [(1, I)] and no system is built.  That is
    the basis the elimination gives too: its one kernel vector (vec I, 1) is
    normalized at its last column, s.  ``surjective`` is
    ``framing_surjective(fs)`` when the caller already has it.
    """
    if fs.r == 1 and fs.field.is_rational:
        if surjective is None:
            surjective = framing_surjective(fs)
        if surjective:
            return [(Matrix.identity(1, fs.field), Matrix.identity(fs.n, fs.field))]
    out = []
    for v in kernel_basis(_end_system(fs)):
        g, s = unvec(v, fs.n, fs.r, fs.r)
        out.append((s, g))
    if fs.field.is_rational and out:
        X, i, m = fs.X, fs.i, len(out)
        gs = Matrix.vstack(*(g for _, g in out))
        ss = Matrix.vstack(*(s for s, _ in out))
        if (_side_by_side(gs @ X, m) != X @ _side_by_side(gs, m)
                or _side_by_side(gs @ i, m) != i @ _side_by_side(ss, m)):
            raise AssertionError("endomorphism basis element fails g X = X g or g i = i s")
    return out


def _side_by_side(stack: Matrix, m: int) -> Matrix:
    """[b_1 | ... | b_m] from the stack [b_1; ...; b_m] of m blocks of one shape."""
    rows, cols = stack.rows // m, stack.cols
    starts = [(a * rows + k) * cols for k in range(rows) for a in range(m)]
    return stack.gather(rows, m * cols, [p + c for p in starts for c in range(cols)])


def _flattened(stack: Matrix, m: int, transpose: bool) -> Matrix:
    """The m x k^2 matrix whose row a lists block a (k x k) of the stack [b_1; ...; b_m] row-major, or its transpose."""
    k = stack.cols
    at = [(a * k + q) * k + p for a in range(m) for p in range(k) for q in range(k)] if transpose else range(m * k * k)
    return stack.gather(m, k * k, at)


def _faithful_trace_form(fs: FramedTorsionSheaf, ends: list[tuple[Matrix, Matrix]]) -> Matrix:
    """The form tr(g_a g_b) + tr(s_a s_b) on an End basis, as one matrix product.

    Row a lists g_a and the transpose of s_a row-major; column b is vec(g_b, s_b),
    which lists g_b column-major and s_b row-major.  Both are gathered from
    the stacks [g_1; ...; g_m] and [s_1; ...; s_m].
    """
    m, gs, ss = len(ends), Matrix.vstack(*(g for _, g in ends)), Matrix.vstack(*(s for s, _ in ends))
    left = _flattened(gs, m, False).hstack(_flattened(ss, m, True))
    right = _flattened(gs, m, True).hstack(_flattened(ss, m, False)).transpose()
    return left @ right


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


class SupportReport(NamedTuple):
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
    combinations with sum c_a s_a = 0, so the fiber is nonempty iff t lies
    in the column span of S, and its dimension is n r + m - rank(S).  One
    ``solve_affine(S, t)`` answers both: it is None exactly when t is outside
    the span, and rank(S) = r^2 - dim ker S.
    ``ends`` is ``endomorphisms(fs)`` when the caller already has it.
    """
    if ends is None:
        ends = endomorphisms(fs)
    m, r2 = len(ends), fs.r * fs.r
    s_part = _flattened(Matrix.vstack(*(s for s, _ in ends)), m, False)
    sol = solve_affine(s_part, Matrix(m, 1, tuple(g.trace() for _, g in ends), fs.field))
    if sol is None:
        return SupportReport(False, None)
    return SupportReport(True, fs.n * fs.r + m - (r2 - len(sol.kernel_basis)))
