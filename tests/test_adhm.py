from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cmkit import (
    CMQuadruple,
    Matrix,
    SingularMatrixError,
    cm_residual,
    commutator,
    conjugate,
    hilbert_ideal,
    is_stable,
    moment_std,
    rank,
    sample_cm,
    word_invariants,
)
from cmkit import adhm, complex_field, eval_matrix_poly, linalg
from cmkit.adhm import MAX_WORD_LEN
from conftest import rand_invertible, rand_matrix, rand_quadruple


def _scalar_quad(x, y, i, j) -> CMQuadruple:
    return CMQuadruple(
        Matrix.from_rows([[x]]),
        Matrix.from_rows([[y]]),
        Matrix.column([i]),
        Matrix.row_vector([j]),
    )


def test_moment_scalar():
    assert moment_std(_scalar_quad(0, 0, 1, 1)) == Matrix.from_rows([[1]])


def test_moment_zero_quadruple():
    q = CMQuadruple(Matrix.zeros(2, 2), Matrix.zeros(2, 2), Matrix.zeros(2, 1), Matrix.zeros(1, 2))
    assert moment_std(q).is_zero()
    assert cm_residual(q) == Matrix.identity(2)


def test_moment_flagship_with_negated_j(flagship):
    q = CMQuadruple(flagship.X, flagship.Y, flagship.i, Matrix.row_vector([-1, -1]))
    assert moment_std(q) == (-1) * Matrix.identity(2)


def test_cm_residual_scalar_and_flagship(flagship):
    assert cm_residual(_scalar_quad(0, 0, 1, 1)).is_zero()
    assert cm_residual(flagship).is_zero()


def test_conjugate_identity_and_equivariance(flagship):
    assert conjugate(flagship, Matrix.identity(2)) == flagship
    rng = random.Random(43)
    for _ in range(25):
        n = rng.randint(1, 4)
        q = rand_quadruple(rng, n)
        g = rand_invertible(rng, n)
        lhs = moment_std(conjugate(q, g))
        rhs = g @ moment_std(q) @ g.inverse()
        assert lhs == rhs
        lhs = cm_residual(conjugate(q, g))
        rhs = g @ cm_residual(q) @ g.inverse()
        assert lhs == rhs


def test_conjugate_flagship_stays_cm(flagship):
    g = Matrix.from_rows([[1, 1], [0, 1]])
    assert cm_residual(conjugate(flagship, g)).is_zero()


def test_conjugate_singular_g(flagship):
    with pytest.raises(SingularMatrixError):
        conjugate(flagship, Matrix.zeros(2, 2))


def test_is_stable_examples():
    assert is_stable(_scalar_quad(0, 0, 1, 0))
    z = Matrix.zeros(2, 2)
    assert not is_stable(CMQuadruple(z, z, Matrix.column([1, 0]), Matrix.zeros(1, 2)))
    j2 = Matrix.from_rows([[0, 1], [0, 0]])
    assert is_stable(CMQuadruple(j2, z, Matrix.column([0, 1]), Matrix.zeros(1, 2)))


def test_word_invariants_flagship(flagship):
    inv = dict(word_invariants(flagship, 2))
    assert inv["tr(X)"] == 1
    assert inv["tr(Y)"] == 0
    assert inv["j·i"] == 2


def test_word_invariants_scalar():
    inv = word_invariants(_scalar_quad(0, 0, 1, 1), 3)
    traces = [v for label, v in inv if label.startswith("tr")]
    assert all(v == 0 for v in traces)
    assert dict(inv)["j·i"] == 1


def test_word_invariants_conjugation_invariant():
    rng = random.Random(47)
    for _ in range(10):
        n = rng.randint(1, 3)
        q = rand_quadruple(rng, n)
        g = rand_invertible(rng, n)
        assert word_invariants(q, 3) == word_invariants(conjugate(q, g), 3)


def test_trace_identity_on_cm_points():
    for n in range(1, 7):
        q = sample_cm(n, 100 + n)
        assert (q.j @ q.i).trace() == n


def test_rank_bound_on_cm_points():
    eye = lambda n: Matrix.identity(n)
    for n in range(1, 7):
        q = sample_cm(n, 200 + n)
        assert rank(commutator(q.X, q.Y) + eye(n)) <= 1


# --- hilbert ideal ---


def test_hilbert_ideal_origin():
    q = _scalar_quad(0, 0, 1, 0)
    ideal = hilbert_ideal(q, 2)
    from cmkit import poly_str

    assert [poly_str(p) for p in ideal.basis] == ["x", "y", "x^2", "xy", "y^2"]
    assert ideal.quotient_dim == 1


def test_hilbert_ideal_two_points():
    q = CMQuadruple(
        Matrix.from_rows([[0, 0], [0, 1]]),
        Matrix.zeros(2, 2),
        Matrix.column([1, 1]),
        Matrix.zeros(1, 2),
    )
    ideal = hilbert_ideal(q, 2)
    assert ideal.quotient_dim == 2
    polys = {frozenset(p) for p in ideal.basis}
    assert frozenset({((0, 1), Fraction(1))}) in polys  # y
    assert frozenset({((2, 0), Fraction(1)), ((1, 0), Fraction(-1))}) in polys  # x^2 - x


def test_hilbert_ideal_membership_by_substitution():
    rng = random.Random(53)
    for n in (2, 3, 4):
        # companion matrix of a random monic polynomial, Y a polynomial in X
        coeffs = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
        comp = [[Fraction(0)] * n for _ in range(n)]
        for k in range(1, n):
            comp[k][k - 1] = Fraction(1)
        for k in range(n):
            comp[k][n - 1] = -coeffs[k]
        X = Matrix.from_rows(comp)
        from cmkit import eval_matrix_poly

        Y = eval_matrix_poly([Fraction(rng.randint(-2, 2)) for _ in range(n)], X)
        i = Matrix.column([1] + [0] * (n - 1))
        q = CMQuadruple(X, Y, i, Matrix.zeros(1, n))
        ideal = hilbert_ideal(q)
        assert ideal.quotient_dim == n
        x_pows = [Matrix.identity(n)]
        y_pows = [Matrix.identity(n)]
        for _ in range(ideal.degree_bound):
            x_pows.append(x_pows[-1] @ X)
            y_pows.append(y_pows[-1] @ Y)
        for poly in ideal.basis:
            image = Matrix.zeros(n, 1)
            for (a, b), c in poly:
                image = image + c * (x_pows[a] @ y_pows[b] @ i)
            assert image.is_zero()


def test_hilbert_ideal_quotient_stabilizes_in_degree():
    q = CMQuadruple(
        Matrix.from_rows([[0, 0], [0, 1]]),
        Matrix.from_rows([[2, 0], [0, 3]]),
        Matrix.column([1, 1]),
        Matrix.zeros(1, 2),
    )
    dims = [hilbert_ideal(q, d).quotient_dim for d in range(1, 5)]
    assert dims == sorted(dims) or dims == sorted(dims, reverse=True)
    assert dims[-1] == 2 and dims[-2] == 2


def test_hilbert_ideal_preconditions(flagship):
    with pytest.raises(ValueError):
        hilbert_ideal(flagship)  # j nonzero and X, Y do not commute
    q = CMQuadruple(
        Matrix.zeros(2, 2), Matrix.zeros(2, 2), Matrix.column([1, 0]), Matrix.zeros(1, 2)
    )
    with pytest.raises(ValueError):
        hilbert_ideal(q)  # unstable


# --- sample_cm ---


def test_sample_cm_scalar():
    q = sample_cm(1, 9)
    assert cm_residual(q).is_zero()
    assert q.i[0, 0] * q.j[0, 0] == 1


def test_sample_cm_residuals_many_seeds():
    for n in range(1, 9):
        for seed in range(10):
            assert cm_residual(sample_cm(n, seed)).is_zero()


def test_sample_cm_reproducible():
    assert sample_cm(4, 77) == sample_cm(4, 77)
    assert sample_cm(4, 77) != sample_cm(4, 78)


def test_sample_cm_distinct_diagonal():
    q = sample_cm(8, 5)
    diag = [q.X[k, k] for k in range(8)]
    assert len(set(diag)) == 8


def _block_cm_pair(seed_a: int, seed_b: int) -> CMQuadruple:
    """Rank-2 framed CM point assembled from two rank-1 points on disjoint blocks."""
    return _block_sum(sample_cm(2, seed_a), sample_cm(1, seed_b))


def _block_sum(qa: CMQuadruple, qb: CMQuadruple) -> CMQuadruple:
    """The direct sum of two CM points: each block diagonal, framings side by side."""
    z = Fraction(0)

    def block_diag(a: Matrix, b: Matrix) -> Matrix:
        rows = []
        for r in range(a.rows):
            rows.append(list(a.row(r)) + [z] * b.cols)
        for r in range(b.rows):
            rows.append([z] * a.cols + list(b.row(r)))
        return Matrix.from_rows(rows)

    X = block_diag(qa.X, qb.X)
    Y = block_diag(qa.Y, qb.Y)
    i = block_diag(qa.i, qb.i)
    j = block_diag(qa.j, qb.j)
    return CMQuadruple(X, Y, i, j)


def test_rank_two_framing_cm_point():
    q = _block_cm_pair(3, 4)
    assert q.r == 2 and q.n == 3
    assert cm_residual(q).is_zero()
    assert (q.j @ q.i).trace() == q.n
    assert rank(commutator(q.X, q.Y) + Matrix.identity(q.n)) <= q.r
    rng = random.Random(107)
    g = rand_invertible(rng, q.n)
    assert cm_residual(conjugate(q, g)).is_zero()


def test_complex_mode_moment():
    from cmkit import complex_field

    field = complex_field(1e-9)
    q = CMQuadruple(
        Matrix.from_rows([[0j, 0j], [0j, 1 + 0j]], field),
        Matrix.from_rows([[0j, -1 + 0j], [1 + 0j, 0j]], field),
        Matrix.from_rows([[1 + 0j], [1 + 0j]], field),
        Matrix.from_rows([[1 + 0j, 1 + 0j]], field),
    )
    assert cm_residual(q).is_zero()
    assert moment_std(q).allclose(Matrix.from_rows([[1 + 0j, 2 + 0j], [2 + 0j, 1 + 0j]], field))


def test_stability_kills_j_randomized_n3():
    # random points of the zero moment level at n = 3: whenever the framing
    # is cyclic, j must vanish.  Moment-zero points are produced by solving
    # the linear system [X, Y] = -i j in Y for random (X, i, j).
    from cmkit import solve_affine

    rng = random.Random(113)
    n = 3
    stable_hits = 0
    checked = 0
    for trial in range(120):
        X = rand_matrix(rng, n, n, span=2)
        i = rand_matrix(rng, n, 1, span=2)
        if trial % 2 == 0:
            j = Matrix.zeros(1, n)
        else:
            j = rand_matrix(rng, 1, n, span=2)
        target = -(i @ j)
        # linear operator Y -> [X, Y], unknowns column-major
        cols = []
        for col in range(n):
            for row in range(n):
                e = [[Fraction(0)] * n for _ in range(n)]
                e[row][col] = Fraction(1)
                em = Matrix.from_rows(e)
                im = commutator(X, em)
                cols.append([im[a, b] for a in range(n) for b in range(n)])
        op = Matrix.from_rows([[cols[c][k] for c in range(len(cols))] for k in range(n * n)])
        rhs = Matrix.column([target[a, b] for a in range(n) for b in range(n)])
        sol = solve_affine(op, rhs)
        if sol is None:
            continue
        y_entries = [[sol.particular[col * n + row, 0] for col in range(n)] for row in range(n)]
        Y = Matrix.from_rows(y_entries)
        q = CMQuadruple(X, Y, i, j)
        assert moment_std(q).is_zero()
        checked += 1
        if is_stable(q):
            stable_hits += 1
            assert q.j.is_zero()
    assert checked > 30 and stable_hits > 0


def test_word_invariants_deterministic_order(flagship):
    labels = [label for label, _ in word_invariants(flagship, 2)]
    assert labels == [
        "tr(X)", "tr(Y)",
        "tr(XX)", "tr(XY)", "tr(YX)", "tr(YY)",
        "j·i",
        "j·X·i", "j·Y·i",
        "j·XX·i", "j·XY·i", "j·YX·i", "j·YY·i",
    ]


def test_hilbert_ideal_vanishes_on_the_point_set():
    # distinct diagonal data cuts out the reduced points (x_k, y_k); every
    # ideal element must vanish there, and nothing of lower codimension can
    rng = random.Random(157)
    for n in (2, 3, 4, 5):
        xs = []
        while len(xs) < n:
            c = Fraction(rng.randint(-6, 6))
            if c not in xs:
                xs.append(c)
        ys = [Fraction(rng.randint(-6, 6)) for _ in range(n)]
        X = Matrix.from_rows([[xs[k] if k == l else 0 for l in range(n)] for k in range(n)])
        Y = Matrix.from_rows([[ys[k] if k == l else 0 for l in range(n)] for k in range(n)])
        q = CMQuadruple(X, Y, Matrix.column([1] * n), Matrix.zeros(1, n))
        ideal = hilbert_ideal(q)
        assert ideal.quotient_dim == n
        for poly in ideal.basis:
            for k in range(n):
                value = sum(c * xs[k] ** a * ys[k] ** b for (a, b), c in poly)
                assert value == 0


def test_is_stable_multicolumn_framing():
    # two framing columns can be jointly cyclic where each alone is not
    X = Matrix.from_rows([[0, 0], [0, 1]])
    i = Matrix.from_rows([[1, 0], [0, 1]])
    q = CMQuadruple(X, Matrix.zeros(2, 2), i, Matrix.zeros(2, 2))
    assert is_stable(q)
    q1 = CMQuadruple(X, Matrix.zeros(2, 2), Matrix.column([1, 0]), Matrix.zeros(1, 2))
    assert not is_stable(q1)


def test_sample_cm_rejects_bad_size():
    with pytest.raises(ValueError):
        sample_cm(0, 1)


def test_hilbert_kernel_is_an_ideal_truncation():
    # multiplying a kernel polynomial by x or y stays in the kernel span
    # whenever the degree bound is not exceeded
    from cmkit import solve_affine

    rng = random.Random(163)
    for trial in range(6):
        n = rng.randint(2, 4)
        xs = []
        while len(xs) < n:
            c = Fraction(rng.randint(-4, 4))
            if c not in xs:
                xs.append(c)
        ys = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        X = Matrix.from_rows([[xs[k] if k == l else 0 for l in range(n)] for k in range(n)])
        Y = Matrix.from_rows([[ys[k] if k == l else 0 for l in range(n)] for k in range(n)])
        q = CMQuadruple(X, Y, Matrix.column([1] * n), Matrix.zeros(1, n))
        d = n + 1
        ideal = hilbert_ideal(q, d)
        mons = list(ideal.monomials)
        index = {m: k for k, m in enumerate(mons)}
        cols = []
        for poly in ideal.basis:
            v = [Fraction(0)] * len(mons)
            for m, c in poly:
                v[index[m]] = c
            cols.append(v)
        span = Matrix.from_rows([[cols[c][k] for c in range(len(cols))] for k in range(len(mons))])
        for poly in ideal.basis:
            for shift in ((1, 0), (0, 1)):
                if max(a + b for (a, b), _ in poly) + sum(shift) > d:
                    continue
                shifted = {(a + shift[0], b + shift[1]): c for (a, b), c in poly}
                target = [Fraction(0)] * len(mons)
                for m, c in shifted.items():
                    target[index[m]] = c
                assert solve_affine(span, Matrix.column(target)) is not None


def test_stability_kills_j_randomized_n4():
    from cmkit import solve_affine

    rng = random.Random(167)
    n = 4
    stable_hits = 0
    for trial in range(60):
        X = rand_matrix(rng, n, n, span=2)
        i = rand_matrix(rng, n, 1, span=2)
        j = Matrix.zeros(1, n) if trial % 2 == 0 else rand_matrix(rng, 1, n, span=2)
        cols = []
        for col in range(n):
            for row in range(n):
                e = [[Fraction(0)] * n for _ in range(n)]
                e[row][col] = Fraction(1)
                im = commutator(X, Matrix.from_rows(e))
                cols.append([im[a, b] for a in range(n) for b in range(n)])
        op = Matrix.from_rows([[cols[c][k] for c in range(len(cols))] for k in range(n * n)])
        target = -(i @ j)
        sol = solve_affine(op, Matrix.column([target[a, b] for a in range(n) for b in range(n)]))
        if sol is None:
            continue
        Y = Matrix.from_rows(
            [[sol.particular[col * n + row, 0] for col in range(n)] for row in range(n)]
        )
        q = CMQuadruple(X, Y, i, j)
        assert moment_std(q).is_zero()
        if is_stable(q):
            stable_hits += 1
            assert q.j.is_zero()
    assert stable_hits > 0


# --- word invariants and Hilbert columns against the prefix- and power-product oracles ---


def _prefix_product_invariants(q: CMQuadruple, max_len: int) -> list:
    """Reference oracle: every word formed as a matrix by prefix products, each traced and paired
    as (j W) i, the loop word_invariants ran before long words were split."""
    letters = {"X": q.X, "Y": q.Y}
    traces, pairings = [], []
    level = [("", Matrix.identity(q.n, q.field))]
    for length in range(max_len + 1):
        if length:
            level = [(word + ch, w @ letters[ch]) for word, w in level for ch in "XY"]
            traces.extend((f"tr({word})", w.trace()) for word, w in level)
        pairings.extend((f"j·{word}·i" if word else "j·i", (q.j @ w @ q.i).trace()) for word, w in level)
    return traces + pairings


# Zero-heavy entries: a whole block may be zero, or mostly zeros with small fractions between.
_SPARSE_ENTRY = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                          st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))
_ENTRY_KINDS = {"zero": st.just(Fraction(0)), "sparse": _SPARSE_ENTRY,
                "dense": st.builds(Fraction, st.integers(-(2**40), 2**40), st.integers(1, 2**20))}


@st.composite
def _quadruples(draw):
    n, r = draw(st.integers(1, 5)), draw(st.sampled_from([1, 2]))

    def block(rows, cols):
        entry = _ENTRY_KINDS[draw(st.sampled_from(sorted(_ENTRY_KINDS)))]
        return Matrix(rows, cols, tuple(draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))))

    return CMQuadruple(block(n, n), block(n, n), block(n, r), block(r, n))


@settings(max_examples=80, deadline=None)
@given(_quadruples(), st.integers(1, 7))
def test_rational_word_invariants_match_prefix_products(q, max_len):
    got = word_invariants(q, max_len)
    assert got == _prefix_product_invariants(q, max_len)
    assert all(type(v) is Fraction for _, v in got)


_COMPLEX_PART = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-100, 100, allow_nan=False, allow_infinity=False))


@st.composite
def _complex_quadruples(draw):
    n, r, field = draw(st.integers(1, 3)), draw(st.sampled_from([1, 2])), complex_field()
    entry = st.one_of(st.just(complex(0)), st.builds(complex, _COMPLEX_PART, _COMPLEX_PART))

    def block(rows, cols):
        return Matrix(rows, cols, tuple(draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))), field)

    return CMQuadruple(block(n, n), block(n, n), block(n, r), block(r, n))


@settings(max_examples=40, deadline=None)
@given(_complex_quadruples(), st.integers(1, 5))
def test_complex_word_invariants_keep_the_prefix_products_bit_for_bit(q, max_len):
    got, expected = word_invariants(q, max_len), _prefix_product_invariants(q, max_len)
    assert [(label, repr(v)) for label, v in got] == [(label, repr(v)) for label, v in expected]


def _power_product_ideal(q: CMQuadruple, d: int):
    """Reference oracle: each column X^a Y^b i as (X^a Y^b) i from the powers, the evaluation matrix
    and ideal hilbert_ideal built before the rational columns came from one another."""
    mons = adhm._monomials(d)
    x_pows, y_pows = [Matrix.identity(q.n, q.field)], [Matrix.identity(q.n, q.field)]
    for _ in range(d):
        x_pows.append(x_pows[-1] @ q.X)
        y_pows.append(y_pows[-1] @ q.Y)
    eval_matrix = Matrix.hstack(*[x_pows[a] @ y_pows[b] @ q.i for a, b in mons])
    kern = linalg.kernel_basis(eval_matrix)
    basis = tuple(tuple((m, c) for m, c in zip(mons, v.entries) if c != 0) for v in kern)
    return eval_matrix, adhm.HilbertIdeal(tuple(mons), basis, len(mons) - len(kern), d)


@st.composite
def _commuting_stable_pairs(draw):
    """Either n distinct points (x_k, y_k) as diagonal X, Y with i all ones, or the companion matrix X
    of a monic polynomial (repeated roots allowed) with Y a polynomial in X and i = e_1; both
    conjugated by a random invertible g, so X and Y are dense."""
    n = draw(st.integers(1, 5))
    small = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    if draw(st.booleans()):
        xs = draw(st.lists(small, min_size=n, max_size=n, unique=True))
        ys = draw(st.lists(small, min_size=n, max_size=n))
        X = Matrix.from_rows([[xs[k] if k == l else 0 for l in range(n)] for k in range(n)])
        Y = Matrix.from_rows([[ys[k] if k == l else 0 for l in range(n)] for k in range(n)])
        i = Matrix.column([1] * n)
    else:
        coeffs = draw(st.lists(small, min_size=n, max_size=n))
        X = Matrix.from_rows([[(1 if k == l + 1 else 0) if l < n - 1 else -coeffs[k] for l in range(n)]
                              for k in range(n)])
        Y = eval_matrix_poly(draw(st.lists(small, min_size=1, max_size=n)), X)
        i = Matrix.column([1] + [0] * (n - 1))
    q = CMQuadruple(X, Y, i, Matrix.zeros(1, n))
    return conjugate(q, rand_invertible(random.Random(draw(st.integers(0, 10**6))), n))


@settings(max_examples=60, deadline=None)
@given(_commuting_stable_pairs(), st.sampled_from(["0", "1", "n-1", "n", "n+2"]))
def test_hilbert_ideal_matches_power_products(q, bound):
    d = {"0": 0, "1": 1, "n-1": q.n - 1, "n": q.n, "n+2": q.n + 2}[bound]
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        # a copy of the rows before the elimination reduces them in place
        mp.setattr(adhm, "_rref", lambda rows, field: seen.append([list(r) for r in rows]) or linalg._rref(rows, field))
        ideal = hilbert_ideal(q, d)
    eval_matrix, expected = _power_product_ideal(q, d)
    assert seen == [linalg._rows(eval_matrix)] and ideal == expected
    if d >= q.n:
        assert ideal.quotient_dim == q.n


def _dense_commuting_pair(seed: int) -> CMQuadruple:
    """Four distinct points as diagonal X, Y with i all ones, conjugated by a random invertible g."""
    X = Matrix.from_rows([[2, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 3]])
    Y = Matrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -2, 0], [0, 0, 0, 1]])
    return conjugate(CMQuadruple(X, Y, Matrix.column([1] * 4), Matrix.zeros(1, 4)), rand_invertible(random.Random(seed), 4))


def test_rational_hilbert_ideal_eliminates_its_columns_directly(monkeypatch):
    def refuse(*args):
        raise AssertionError("the rational hilbert_ideal builds the evaluation matrix")

    q = _dense_commuting_pair(227)
    expected = _power_product_ideal(q, 5)[1]
    monkeypatch.setattr(Matrix, "hstack", refuse)
    monkeypatch.setattr(adhm, "kernel_basis", refuse)
    monkeypatch.setattr(linalg, "kernel_basis", refuse)
    assert hilbert_ideal(q, 5) == expected


def _count_square_products(monkeypatch, n: int) -> list:
    """Record every n x n by n x n product the product loop is called on."""
    calls = []
    product = linalg._product

    def counted(left, right, rows, inner, cols, zero):
        if rows == inner == cols == n:
            calls.append(rows)
        return product(left, right, rows, inner, cols, zero)

    monkeypatch.setattr(linalg, "_product", counted)
    return calls


def test_word_invariants_form_only_the_short_words(monkeypatch):
    q = conjugate(sample_cm(4, 5), rand_invertible(random.Random(211), 4))
    calls = _count_square_products(monkeypatch, 4)
    word_invariants(q, MAX_WORD_LEN)
    # the words of length 1..5 (2 + 4 + ... + 32); forming every word of length <= 10 would take 2046
    assert len(calls) <= 62


def test_rational_hilbert_ideal_forms_no_square_product_beyond_the_commutator(monkeypatch):
    q = _dense_commuting_pair(223)
    calls = _count_square_products(monkeypatch, 4)
    assert hilbert_ideal(q, 6).quotient_dim == 4
    assert len(calls) == 2  # XY and YX
