"""Framed torsion sheaves (X, i): support, endomorphisms, indecomposability.

A pair (X, i) with X n x n and i n x r models a length-n torsion sheaf
Q = coker(x - X) on the line together with a framing map with matrix i.
Morphisms of framed pairs are pairs (s, g) with g X = X g and g i = i s;
the sheaf is indecomposable exactly when this endomorphism algebra is local.

One kernel basis of the End system, whose rows :func:`_end_rows` writes
from the integer forms of X and i, answers both structural questions, kept
as the one m x (n^2 + r^2) block whose row a is vec(g_a, s_a)
(:func:`_end_block`).  The CM fiber over (X, i) is a torsor whose only
obstruction is a trace, and the obstruction space is the part of End with
s = 0 (:func:`cm_support_check`).  The radical of End is the kernel of the
trace form of the faithful representation (s, g) |-> diag(g, s)
(:func:`is_indecomposable`).

In rank one with a cyclic framing (i generates the space under X, which is
what :func:`framing_surjective` tests) End is the scalars: gX = Xg and
gi = is give g X^k i = X^k g i = X^k i s, so g K = K s for the invertible
K = [i, Xi, ..., X^(n-1) i], and g = s I.  The framed sheaf then has no
endomorphism but the scalars, as in Wilson's rank-one picture (Collisions
of Calogero-Moser particles and an adelic Grassmannian, Invent. Math. 133,
1998), and :func:`_end_block` answers without the End system.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .linalg import (
    Matrix,
    _answer,
    _closure_rank,
    _kernel_pairs,
    _pivots,
    _product,
    _rows,
    _rref,
    add_sandwich,
    char_poly,
    format_terms,
    power,
    vec,
)
from .linalg import kernel_basis, rank, solve_affine  # noqa: F401  (tracer sites: bench/spans.py wraps them)
from .koszul import FramedTorsionSheaf
from .koszul import solve_cm_fiber  # noqa: F401  (tracer sites: bench/spans.py wraps them)

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

    Complex mode returns [(root, multiplicity)]: the eigenvalues of X from
    ``numpy.linalg.eigvals``, clustered by the field tolerance.  For a
    diagonalizable X they are accurate to about eps times the condition of
    its eigenvector basis, so a repeated eigenvalue is one cluster; the
    roots of char_poly(X) would split a double root by about sqrt(eps).  An
    eigenvalue with a Jordan block of size k > 1 is perturbed by about
    (eps |X|)^(1/k) unless X is triangular, and the roots it splits into are
    ill-conditioned: each lies within about eps |X| / c of the eigenvalue,
    for c the inverse of its condition number.  So two clusters are one
    root when a root of each lies within the sum of their reaches
    5 eps |X| / c of the other; distinct eigenvalues of a diagonalizable X
    have c of about 1 over the condition of its eigenvector basis and stay
    apart however close they are.  Two eigenvalues closer than about 30
    times the spread of a Jordan block of either may still be joined.
    """
    if fs.field.is_rational:
        # imported here so that commands which never factor do not load (or compile) the module
        from .factor import factor_rational, multiply_out

        cp = char_poly(fs.X)
        out = factor_rational(cp)
        if multiply_out(out) != cp:
            raise AssertionError("support factors do not multiply back to char_poly(X)")
        out.sort(key=lambda t: (len(t[0]), t[0]))
        return out
    import numpy as np

    x = np.array(fs.X.entries, dtype=complex).reshape(fs.n, fs.n)
    tol = max(fs.field.tolerance, 1e-12)
    clusters: list[list[complex]] = []
    for z in sorted(np.linalg.eigvals(x), key=lambda w: (w.real, w.imag)):
        for cl in clusters:
            if abs(cl[0] - z) <= tol * 10 * max(1.0, abs(cl[0])):
                cl.append(complex(z))
                break
        else:
            clusters.append([complex(z)])
    # Clusters join while two of their roots z, w lie within reach(z) + reach(w) of each other; c(z) is
    # |y^H v| for the unit singular vectors y, v of X - z I of its least singular value, at an eigenvalue
    # its left and right eigenvectors, so c(z) is about (eps |X|)^((k-1)/k) at a root a Jordan block of
    # size k split off, and is taken as at least that for k = n.  Groups keep the order of their least roots.
    groups = [[(z, 0.0) for z in cl] for cl in clusters]
    if len(clusters) > 1:
        delta = np.finfo(float).eps * float(np.linalg.norm(x))
        floor, groups = delta ** (1 - 1 / fs.n), []

        def reach(z):  # 5 eps |X| / c(z)
            u, _, vh = np.linalg.svd(x - z * np.eye(fs.n))
            return 5 * delta / max(abs(vh[-1] @ u[:, -1]), floor)

        for cl in clusters:
            cl = [(z, reach(z)) for z in cl]
            touching = [g for g in groups if any(abs(z - w) <= r + s for z, r in cl for w, s in g)]
            groups = [g for g in groups if not any(g is t for t in touching)] + [sum(touching, []) + cl]
    out = []
    for g in sorted(groups, key=lambda g: min((z.real, z.imag) for z, _ in g)):
        roots = sorted((z for z, _ in g), key=lambda w: (w.real, w.imag))
        out.append((sum(roots) / len(roots), len(roots)))
    return out


def factor_str(coeffs: tuple[Fraction, ...]) -> str:
    """The polynomial with ascending coefficients ``coeffs``, highest degree first, zero terms left out."""
    return format_terms(reversed([(c, power("x", k)) for k, c in enumerate(coeffs) if c != 0]))


def framing_surjective(fs: FramedTorsionSheaf) -> bool:
    """True iff the columns of i generate the space under X alone."""
    return _closure_rank(fs.i, [fs.X]) == fs.n


def _end_rows(fs: FramedTorsionSheaf) -> list[list]:
    """The rows :func:`_rref` takes of the operator (g, s) |-> (g X - X g, g i - i s) on vec(g, s).

    :func:`linalg.add_sandwich` writes its four terms: g X and (-X) g from
    the n x n identity and X, then g i and (-i) s from i and the r x r
    identity.  The rows are written from the forms of X and i, so rational
    commutator rows are scaled by d_X and framing rows by d_i (each block of
    equations reads only X or only i), which does not change the kernel; a
    complex form is the entries over 1.  Rational rows start from the int 0
    and complex ones from 0j.  In either field the equations are row-major,
    commutator rows first.
    """
    n, r = fs.n, fs.r
    x, a = fs.X._integer_form()[0], fs.i._integer_form()[0]
    zero = 0 if fs.field.is_rational else fs.field.zero
    eye_n, eye_r = ([int(k == l) for k in range(m) for l in range(m)] for m in (n, r))
    rows = [[zero] * (n * n + r * r) for _ in range(n * n + n * r)]
    add_sandwich(rows, eye_n, x, n, n, eq_row=0, unknown_col=0)
    add_sandwich(rows, [-y for y in x], eye_n, n, n, eq_row=0, unknown_col=0)
    add_sandwich(rows, eye_n, a, n, n, eq_row=n * n, unknown_col=0)
    add_sandwich(rows, [-y for y in a], eye_r, r, r, eq_row=n * n, unknown_col=n * n)
    return rows


def _end_block(fs: FramedTorsionSheaf, surjective=None) -> Matrix:
    """The End basis as one m x (n^2 + r^2) matrix whose row a is vec(g_a, s_a).

    The rows are the canonical kernel basis of the End system, read by
    ``_kernel_pairs`` off the pivot rows that :func:`_rref` leaves of
    :func:`_end_rows`.  In rational mode the whole basis is checked against
    both defining equations at once, on integer lists gathered from the
    block's integer form (numerators over d) and compared at one scale:
    [g_1; ...; g_m] X against X [g_1 | ... | g_m], both over d d_X, and
    [g_1; ...; g_m] i against i [s_1 | ... | s_m], both over d d_i, four
    :func:`linalg._product` calls in all.  The products are taken against
    X and i themselves, so the check does not rest on :func:`_end_rows`.

    A rational sheaf of rank one with a surjective framing has End = Q (1, I)
    (see the module docstring), so the block is the one row vec(I, 1), the
    row the elimination gives too, and no system is built.  ``surjective``
    is ``framing_surjective(fs)`` when the caller already has it.
    """
    n, r, field = fs.n, fs.r, fs.field
    ncols = n * n + r * r
    if r == 1 and field.is_rational:
        if surjective is None:
            surjective = framing_surjective(fs)
        if surjective:
            return Matrix(1, ncols, tuple(vec(Matrix.identity(n, field), Matrix.identity(1, field))), field)
    kern = _kernel_pairs(*_rref(_end_rows(fs), field), ncols, field)
    block, m = _answer(len(kern), ncols, [x for v in kern for x in v], field), len(kern)
    if field.is_rational:  # m >= 1: (1, I) is in End
        # [g_1; ...; g_m] (g_a column-major in its row) and [s_1; ...; s_m] as numerators over d
        b, (x, _), (i, _) = block._integer_form()[0], fs.X._integer_form(), fs.i._integer_form()
        gs = [b[a * ncols + c * n + p] for a in range(m) for p in range(n) for c in range(n)]
        ss = [b[a * ncols + n * n + t] for a in range(m) for t in range(r * r)]
        gx, xg = _product(gs, x, m * n, n, n, 0), _product(x, _beside(gs, m, n, n), n, n, m * n, 0)
        gi, i_s = _product(gs, i, m * n, n, r, 0), _product(i, _beside(ss, m, r, r), n, r, m * r, 0)
        if _beside(gx, m, n, n) != xg or _beside(gi, m, n, r) != i_s:
            raise AssertionError("endomorphism basis element fails g X = X g or g i = i s")
    return block


def _beside(stack: list, m: int, rows: int, cols: int) -> list:
    """[b_1 | ... | b_m] from the stack [b_1; ...; b_m] of m rows x cols blocks, both as row-major lists."""
    return [stack[(a * rows + p) * cols + c] for p in range(rows) for a in range(m) for c in range(cols)]


def endomorphisms(fs: FramedTorsionSheaf) -> list[tuple[Matrix, Matrix]]:
    """Basis of the algebra {(s, g) : g X = X g, g i = i s}: the rows of :func:`_end_block`, as pairs.

    The algebra is unital and closed under the componentwise composition
    (s, g)(s', g') = (s s', g g').
    """
    block = _end_block(fs)
    n, r, k = fs.n, fs.r, block.cols
    g_at = [c * n + q for q in range(n) for c in range(n)]  # g_a row-major, from its column-major place in row a
    return [(block.gather(r, r, range(a * k + n * n, (a + 1) * k)), block.gather(n, n, [a * k + t for t in g_at]))
            for a in range(block.rows)]


def _faithful_trace_form(fs: FramedTorsionSheaf, block: Matrix) -> list[list[int]]:
    """d^2 times the form tr(g_a g_b) + tr(s_a s_b) on a rational End block over d, as integer rows.

    Row a of the block is vec(g_a, s_a), g_a column-major and s_a row-major,
    and its integer row from :func:`linalg._rows` is that over d.  Column b
    of the right factor lists g_b row-major and s_b column-major, which is
    vec of the transposes, so the form is one :func:`linalg._product` of the
    rows against their swapped transpose.  The scale d^2 leaves the rank.
    """
    n, r, m = fs.n, fs.r, block.rows
    rows = _rows(block)
    swap = [(t % n) * n + t // n for t in range(n * n)] + [n * n + (t % r) * r + t // r for t in range(r * r)]
    form = _product([x for row in rows for x in row], [row[t] for t in swap for row in rows], m, block.cols, m, 0)
    return [form[a * m : (a + 1) * m] for a in range(m)]


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
    tr(g_a g_b) + tr(s_a s_b), one product of the m integer rows of the End
    block against their swapped transpose, and its rank is the pivot count
    of :func:`_pivots`, one forward elimination (:func:`_faithful_trace_form`).

    Indecomposability is decided over Q, the field of the input: the sheaf
    is declared indecomposable iff dim(End / radical) = 1.  When the
    quotient has dimension > 1 but char_poly(X) does not split over the
    rationals, the quotient may be a field hiding a decomposition over C,
    so the answer is ``INCONCLUSIVE`` rather than a guess.  Exact mode only.
    ``factors`` is ``support(fs)`` and ``ends`` is ``_end_block(fs)`` when
    the caller already has them; otherwise they are computed when needed.
    """
    if not fs.field.is_rational:
        raise ValueError("is_indecomposable requires the exact rational field")
    if ends is None:
        ends = _end_block(fs)
    semisimple_dim = len(_pivots(_faithful_trace_form(fs, ends), fs.field))
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

    Given the End block ``ends`` (:func:`_end_block`) with m rows, let S be
    its last r^2 columns, the m x r^2 matrix of the s_a, and t the column of
    tr g_a, the sum of its diagonal-g columns.  The Z are the combinations
    with sum c_a s_a = 0, so the fiber is nonempty iff t lies in the column
    span of S, that is iff rank(S) = rank([S | t]), and its dimension is
    n r + m - rank(S).  The pivots (:func:`_pivots`) of the rows
    [s_a | tr g_a], read off :func:`linalg._rows` of the block (numerators
    over one d, or complex entries), answer both: t is outside the span
    exactly when its column is a pivot, and otherwise rank(S) is the number
    of pivots.  Scaling every row by d changes neither.
    ``ends`` is ``_end_block(fs)`` when the caller already has it.
    """
    if ends is None:
        ends = _end_block(fs)
    n, r = fs.n, fs.r
    rows = [row[n * n :] + [sum(row[c] for c in range(0, n * n, n + 1))] for row in _rows(ends)]
    pivots = _pivots(rows, fs.field)
    if r * r in pivots:
        return SupportReport(False, None)
    return SupportReport(True, n * r + len(rows) - len(pivots))
