"""Acceptance suite: one test per contract criterion, one pass/fail line each.

Every assertion here is exact (rational arithmetic, zero tolerance); the
stated runtime budgets are asserted where the contract pins them.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

from cmkit import (
    CMQuadruple,
    Matrix,
    cech_graded_ranks,
    cm_residual,
    commutator,
    conjugate,
    embed,
    eval_matrix_poly,
    from_cm,
    apply_homotopy,
    hilbert_ideal,
    is_indecomposable,
    is_stable,
    micro_mul,
    moment_std,
    normalize,
    rank,
    sample_cm,
    solve_affine,
    solve_cm_fiber,
    torsor_action,
    weyl_mul,
    d_pow,
    x_pow,
    weyl_element,
    PolyCovector,
    FramedTorsionSheaf,
    cm_support_check,
)
from conftest import rand_invertible, rand_matrix, rand_quadruple


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {desc}")
        raise
    print(f"[PASS] criterion {num}: {desc}")


def _cm_pool(max_n: int, seeds: int) -> list[CMQuadruple]:
    return [sample_cm(n, s) for n in range(1, max_n + 1) for s in range(seeds)]


def test_criterion_1_cm_relation_suite():
    with criterion(1, "CM relation on sampled points + conjugation equivariance, exact"):
        t0 = time.monotonic()
        for n in range(1, 9):
            for seed in range(50):
                assert cm_residual(sample_cm(n, seed)).is_zero()
        rng = random.Random(2024)
        for _ in range(200):
            n = rng.randint(1, 4)
            q = rand_quadruple(rng, n)
            g = rand_invertible(rng, n)
            assert moment_std(conjugate(q, g)) == g @ moment_std(q) @ g.inverse()
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0, f"runtime budget exceeded: {elapsed:.2f}s"


def test_criterion_2_trace_identity():
    with criterion(2, "tr(j i) = n on every generated CM point, zero tolerance"):
        for q in _cm_pool(8, 12):
            assert (q.j @ q.i).trace() == q.n


def test_criterion_3_normalization_round_trip():
    with criterion(3, "homotopy then normalize returns the unique CM representative"):
        t0 = time.monotonic()
        rng = random.Random(4096)
        count = 0
        while count < 100:
            n = rng.randint(1, 5)
            q = sample_cm(n, rng.randint(0, 10**7))
            degree = rng.randint(0, 3)
            coeffs = [rand_matrix(rng, 1, n, span=3) for _ in range(degree + 1)]
            h = PolyCovector.from_coeffs(coeffs)
            assert normalize(apply_homotopy(from_cm(q), h)) == q
            count += 1
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, f"runtime budget exceeded: {elapsed:.2f}s"


def test_criterion_4_pseudotorsor():
    with criterion(4, "CM fiber = particular + span(kernel); differences decompose exactly"):
        rng = random.Random(777)
        checked = 0
        while checked < 100:
            n = rng.randint(1, 4)
            q = sample_cm(n, rng.randint(0, 10**7))
            sol = solve_cm_fiber(FramedTorsionSheaf(q.X, q.i))
            assert sol is not None
            # random points of the affine fiber satisfy the relation exactly
            for _ in range(3):
                t = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(sol.dimension)]
                y, j = torsor_action(sol, t)
                assert cm_residual(CMQuadruple(q.X, y, q.i, j)).is_zero()
            # (q.Y, q.j) is an independently found solution of the same system
            dy, dj = q.Y - sol.particular_Y, q.j - sol.particular_j
            cols = []
            for yk, jk in sol.kernel_basis:
                cols.append(
                    [yk[rr, cc] for cc in range(n) for rr in range(n)]
                    + [jk[0, cc] for cc in range(n)]
                )
            target = [dy[rr, cc] for cc in range(n) for rr in range(n)] + [
                dj[0, cc] for cc in range(n)
            ]
            if cols:
                m = Matrix.from_rows([[cols[c][k] for c in range(len(cols))] for k in range(len(target))])
                decomposition = solve_affine(m, Matrix.column(target))
                assert decomposition is not None
            else:
                assert all(v == 0 for v in target)
            checked += 1


def test_criterion_5_rank_one_obstruction():
    with criterion(5, "(I_n, i) infeasible for n >= 2; rank([X,Y] + I) <= 1 on CM points"):
        rng = random.Random(31337)
        for n in range(2, 7):
            assert solve_cm_fiber(FramedTorsionSheaf(Matrix.identity(n), Matrix.column([1] + [0] * (n - 1)))) is None
            i_rand = rand_matrix(rng, n, 1)
            assert solve_cm_fiber(FramedTorsionSheaf(Matrix.identity(n), i_rand)) is None
        for q in _cm_pool(8, 8):
            assert rank(commutator(q.X, q.Y) + Matrix.identity(q.n)) <= 1


def _companion(coeffs: list[Fraction]) -> Matrix:
    n = len(coeffs)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n):
        rows[k][k - 1] = Fraction(1)
    for k in range(n):
        rows[k][n - 1] = -coeffs[k]
    return Matrix.from_rows(rows)


def test_criterion_6_hilbert_scheme_side():
    with criterion(6, "length-n quotients from commuting stable data; stability forces j = 0"):
        rng = random.Random(515)
        for n in range(1, 7):
            for _ in range(4):
                cp = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
                X = _companion(cp)
                Y = eval_matrix_poly([Fraction(rng.randint(-2, 2)) for _ in range(n)], X)
                i = Matrix.column([1] + [0] * (n - 1))
                q = CMQuadruple(X, Y, i, Matrix.zeros(1, n))
                assert is_stable(q)
                assert hilbert_ideal(q).quotient_dim == n
        # simultaneously diagonalizable pairs: X alone need not be cyclic,
        # the joint spectrum separates the points
        for n in range(2, 7):
            pairs = set()
            while len(pairs) < n:
                pairs.add((rng.randint(-3, 3), rng.randint(-3, 3)))
            pairs = sorted(pairs)
            g = rand_invertible(rng, n)
            ginv = g.inverse()
            D1 = Matrix.from_rows([[pairs[k][0] if k == l else 0 for l in range(n)] for k in range(n)])
            D2 = Matrix.from_rows([[pairs[k][1] if k == l else 0 for l in range(n)] for k in range(n)])
            i = g @ Matrix.column([1] * n)
            q = CMQuadruple(g @ D1 @ ginv, g @ D2 @ ginv, i, Matrix.zeros(1, n))
            assert commutator(q.X, q.Y).is_zero() and is_stable(q)
            assert hilbert_ideal(q).quotient_dim == n

        # exhaustive n = 2 grid over entries in {-1, 0, 1}:
        # every stable point of the zero moment level has j = 0
        def mat2(t):
            return ((t[0], t[1]), (t[2], t[3]))

        def mul2(a, b):
            return (
                a[0][0] * b[0][0] + a[0][1] * b[1][0],
                a[0][0] * b[0][1] + a[0][1] * b[1][1],
                a[1][0] * b[0][0] + a[1][1] * b[1][0],
                a[1][0] * b[0][1] + a[1][1] * b[1][1],
            )

        outer = {}
        for iv in product((-1, 0, 1), repeat=2):
            for jv in product((-1, 0, 1), repeat=2):
                key = (iv[0] * jv[0], iv[0] * jv[1], iv[1] * jv[0], iv[1] * jv[1])
                outer.setdefault(key, []).append((iv, jv))

        def stable2(x, y, iv):
            if iv == (0, 0):
                return False
            xi = (x[0][0] * iv[0] + x[0][1] * iv[1], x[1][0] * iv[0] + x[1][1] * iv[1])
            yi = (y[0][0] * iv[0] + y[0][1] * iv[1], y[1][0] * iv[0] + y[1][1] * iv[1])
            return (iv[0] * xi[1] - iv[1] * xi[0]) != 0 or (iv[0] * yi[1] - iv[1] * yi[0]) != 0

        grid = list(product((-1, 0, 1), repeat=4))
        stable_hits = 0
        violations = []
        for xe in grid:
            x = mat2(xe)
            for ye in grid:
                y = mat2(ye)
                xy = mul2(x, y)
                yx = mul2(y, x)
                c = tuple(p - m for p, m in zip(xy, yx))
                needed = tuple(-v for v in c)
                for iv, jv in outer.get(needed, ()):
                    if stable2(x, y, iv):
                        stable_hits += 1
                        if jv != (0, 0):
                            violations.append((xe, ye, iv, jv))
        assert stable_hits > 0
        assert not violations, f"stability failed to kill j on: {violations[:5]}"


def test_criterion_7_cech_rank_formulas():
    with criterion(7, "graded cohomology ranks match the closed formulas, certified"):
        t0 = time.monotonic()
        for twist in range(-6, 6):
            expected = (twist + 1, 0) if twist >= -1 else (0, -1 - twist)
            for cutoff in (abs(twist) + 2, abs(twist) + 3):
                got = cech_graded_ranks(twist, cutoff)
                assert got.certified, f"twist {twist} cutoff {cutoff} uncertified"
                assert (got.h0_rank, got.h1_rank) == expected
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0, f"runtime budget exceeded: {elapsed:.2f}s"


def test_criterion_8_weyl_engine():
    with criterion(8, "associativity x500, [d,x] = 1, d^2 x^2 identity, micro agreement"):
        rng = random.Random(6174)

        def rand_weyl():
            terms = {}
            for _ in range(rng.randint(1, 4)):
                terms[(rng.randint(0, 5), rng.randint(0, 5))] = Fraction(
                    rng.randint(-4, 4), rng.randint(1, 3)
                )
            return weyl_element(terms)

        for _ in range(500):
            u, v, w = rand_weyl(), rand_weyl(), rand_weyl()
            assert weyl_mul(weyl_mul(u, v), w) == weyl_mul(u, weyl_mul(v, w))
        d, x = d_pow(1), x_pow(1)
        assert weyl_mul(d, x) - weyl_mul(x, d) == weyl_element({(0, 0): 1})
        assert weyl_mul(d_pow(2), x_pow(2)) == weyl_element({(2, 2): 1, (1, 1): 4, (0, 0): 2})
        for _ in range(50):
            u, v = rand_weyl(), rand_weyl()
            exact = weyl_mul(u, v)
            prod = micro_mul(embed(u).truncate(-1), embed(v).truncate(-1))
            for (a, b), c in exact.terms:
                if b >= prod.floor:
                    assert prod.coeff(a, b) == c


def test_criterion_9_support_cross_validation():
    with criterion(9, "CM support = indecomposability on the exhaustive split-spectrum grid"):
        discrepancies = []
        cases = 0
        for xe in product((-1, 0, 1), repeat=4):
            tr = xe[0] + xe[3]
            det = xe[0] * xe[3] - xe[1] * xe[2]
            disc = tr * tr - 4 * det
            if disc < 0 or int(disc**0.5 + 0.5) ** 2 != disc:
                continue  # split spectra only
            X = Matrix.from_rows([[xe[0], xe[1]], [xe[2], xe[3]]])
            for iv in product((-1, 0, 1), repeat=2):
                i = Matrix.column(list(iv))
                fs = FramedTorsionSheaf(X, i)
                indec = is_indecomposable(fs)
                assert indec in (True, False), "split spectrum must be decisive"
                in_support = cm_support_check(fs).in_support
                cases += 1
                if indec != in_support:
                    discrepancies.append(
                        {"X": xe, "i": iv, "indecomposable": indec, "in_support": in_support}
                    )
        assert cases > 400
        if discrepancies:
            print("counterexample report:")
            for d in discrepancies:
                print("  ", d)
        assert not discrepancies, f"{len(discrepancies)} discrepancies found"
