from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cmkit import (
    FramedTorsionSheaf,
    INCONCLUSIVE,
    Matrix,
    char_poly,
    cm_support_check,
    complex_field,
    endomorphisms,
    factor_str,
    framing_surjective,
    is_indecomposable,
    rank,
    solve_affine,
    solve_cm_fiber,
    support,
    SupportReport,
)
from conftest import rand_invertible, rand_matrix


J2 = Matrix.from_rows([[0, 1], [0, 0]])
DIAG01 = Matrix.from_rows([[0, 0], [0, 1]])


def test_support_diag():
    fs = FramedTorsionSheaf(DIAG01, Matrix.column([1, 1]))
    assert support(fs) == [((Fraction(-1), Fraction(1)), 1), ((Fraction(0), Fraction(1)), 1)]
    assert {factor_str(c) for c, _ in support(fs)} == {"x", "x - 1"}


def test_support_jordan():
    fs = FramedTorsionSheaf(J2, Matrix.column([1, 0]))
    assert support(fs) == [((Fraction(0), Fraction(1)), 2)]


def test_support_companion_round_trip():
    rng = random.Random(79)
    for _ in range(10):
        n = rng.randint(2, 5)
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        comp = [[Fraction(0)] * n for _ in range(n)]
        for k in range(1, n):
            comp[k][k - 1] = Fraction(1)
        for k in range(n):
            comp[k][n - 1] = -coeffs[k]
        X = Matrix.from_rows(comp)
        assert char_poly(X) == coeffs + [Fraction(1)]
        fs = FramedTorsionSheaf(X, Matrix.column([1] + [0] * (n - 1)))
        factors = support(fs)
        product = [Fraction(1)]
        for c, m in factors:
            for _ in range(m):
                product = [sum(product[k] * c[t - k] for k in range(len(product)) if 0 <= t - k < len(c))
                           for t in range(len(product) + len(c) - 1)]
        assert product == coeffs + [Fraction(1)]
        total = sum((len(c) - 1) * m for c, m in factors)
        assert total == n


def test_support_multiplicities_sum_to_n():
    rng = random.Random(83)
    for _ in range(10):
        n = rng.randint(1, 4)
        X = Matrix.from_rows([[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
        fs = FramedTorsionSheaf(X, Matrix.column([1] * n))
        assert sum((len(c) - 1) * m for c, m in support(fs)) == n


def test_support_float_mode_clusters():
    # the clustering radius follows the field tolerance
    field = complex_field(1e-6)
    X = Matrix.from_rows([[complex(2), complex(0)], [complex(0), complex(2)]], field)
    fs = FramedTorsionSheaf(X, Matrix.from_rows([[complex(1)], [complex(1)]], field))
    [(root, mult)] = support(fs)
    assert mult == 2 and abs(root - 2) < 1e-5


def test_complex_support_keeps_repeated_eigenvalues_together():
    # The roots of char_poly(X) split a double root by about sqrt(eps) = 1.5e-8, wider
    # than the clustering radius 10 * tol = 1e-8; the eigenvalues of X do not.
    field = complex_field()
    g = Matrix.from_rows([[1, 2j, 0], [1 - 1j, 1, 3], [0, 1j, 2]], field)
    conjugated = g @ Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 2]], field) @ g.inverse()
    for X, roots, mults in [(Matrix.identity(2, field), [1], [2]), (Matrix.identity(3, field), [1], [3]),
                            (conjugated, [1, 2], [2, 1])]:
        got = support(FramedTorsionSheaf(X, Matrix.column([1] * X.rows, field)))
        assert [m for _, m in got] == mults
        assert all(abs(z - root) < 1e-12 for (z, _), root in zip(got, roots))


def test_complex_support_keeps_a_jordan_block_together():
    # X = g diag(J_2(1), 2) g^-1: eigvals splits the double eigenvalue by about 2e-8, twice the
    # tolerance radius, as (eps |X|)^(1/2), and g J_3(1) g^-1 by more.  Distinct eigenvalues of a
    # diagonalizable X stay apart however close their mean: 1e-6 apart for k = 2, 2e-5 for k = 3 (its
    # Jordan radius is about 7e-5), and 0.05 for k = 10 (radius 0.3); next to a Jordan block too.
    field = complex_field()
    g = Matrix.from_rows([[1, 2j, 0], [1 - 1j, 1, 3], [0, 1j, 2]], field)
    conj = lambda rows: g @ Matrix.from_rows(rows, field) @ g.inverse()
    jordan, jordan3 = conj([[1, 1, 0], [0, 1, 0], [0, 0, 2]]), conj([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    beside, derogatory = conj([[1, 1, 0], [0, 1, 0], [0, 0, 1 + 1e-5]]), conj([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    diag = lambda ds: Matrix.from_rows([[d if a == b else 0 for b in range(len(ds))] for a, d in enumerate(ds)], field)
    spread = [k / 20 for k in range(10)]
    for X, roots, mults in [(jordan, [1, 2], [2, 1]), (jordan3, [1], [3]), (derogatory, [1], [3]),
                            (beside, [1, 1 + 1e-5], [2, 1]), (diag([1, 1 + 1e-6]), [1, 1 + 1e-6], [1, 1]),
                            (diag([1, 1 + 2e-5, 1 + 4e-5]), [1, 1 + 2e-5, 1 + 4e-5], [1, 1, 1]),
                            (diag(spread), spread, [1] * 10)]:
        got = support(FramedTorsionSheaf(X, Matrix.column([1] * X.rows, field)))
        assert [m for _, m in got] == mults
        assert all(abs(z - root) < 1e-12 for (z, _), root in zip(got, roots))


def test_framing_surjective_examples():
    assert framing_surjective(FramedTorsionSheaf(Matrix.zeros(1, 1), Matrix.column([1])))
    assert framing_surjective(FramedTorsionSheaf(J2, Matrix.column([0, 1])))
    assert not framing_surjective(FramedTorsionSheaf(J2, Matrix.column([1, 0])))
    assert not framing_surjective(FramedTorsionSheaf(DIAG01, Matrix.column([1, 0])))


def test_endomorphisms_flagship_sheaf():
    fs = FramedTorsionSheaf(DIAG01, Matrix.column([1, 1]))
    basis = endomorphisms(fs)
    assert len(basis) == 1
    s, g = basis[0]
    assert g == s[0, 0] * Matrix.identity(2)


def test_endomorphisms_decomposable_case():
    fs = FramedTorsionSheaf(DIAG01, Matrix.column([1, 0]))
    basis = endomorphisms(fs)
    assert len(basis) == 2
    # contains the idempotent (0, diag(0, 1))
    target = (Matrix.zeros(1, 1), Matrix.from_rows([[0, 0], [0, 1]]))
    cols = []
    for s, g in basis:
        cols.append([g[r, c] for c in range(2) for r in range(2)] + [s[0, 0]])
    tvec = [target[1][r, c] for c in range(2) for r in range(2)] + [target[0][0, 0]]
    m = Matrix.from_rows([[cols[b][k] for b in range(2)] for k in range(5)])
    assert solve_affine(m, Matrix.column(tvec)) is not None


def test_endomorphisms_jordan_local_algebra():
    fs = FramedTorsionSheaf(J2, Matrix.column([1, 0]))
    basis = endomorphisms(fs)
    assert len(basis) == 2
    # algebra is spanned by the identity pair and the nilpotent (0, X)
    gs = [g for _, g in basis]
    span_checks = [Matrix.identity(2), J2]
    cols = [[g[r, c] for c in range(2) for r in range(2)] for g in gs]
    m = Matrix.from_rows([[cols[b][k] for b in range(2)] for k in range(4)])
    for target in span_checks:
        tvec = [target[r, c] for c in range(2) for r in range(2)]
        assert solve_affine(m, Matrix.column(tvec)) is not None


def test_endomorphisms_closed_under_composition_and_unital():
    rng = random.Random(89)
    for _ in range(10):
        n = rng.randint(1, 3)
        r = rng.randint(1, 2)
        X = Matrix.from_rows([[Fraction(rng.randint(-1, 1)) for _ in range(n)] for _ in range(n)])
        i = Matrix.from_rows([[Fraction(rng.randint(-1, 1)) for _ in range(r)] for _ in range(n)])
        fs = FramedTorsionSheaf(X, i)
        basis = endomorphisms(fs)
        dim = n * n + r * r
        cols = []
        for s, g in basis:
            cols.append(
                [g[row, c] for c in range(n) for row in range(n)]
                + [s[row, c] for row in range(r) for c in range(r)]
            )
        m = Matrix.from_rows([[cols[b][k] for b in range(len(basis))] for k in range(dim)])
        # identity pair lies in the span
        ivec = (
            [Matrix.identity(n)[row, c] for c in range(n) for row in range(n)]
            + [Matrix.identity(r)[row, c] for row in range(r) for c in range(r)]
        )
        assert solve_affine(m, Matrix.column(ivec)) is not None
        # products of basis pairs decompose in the span
        for s1, g1 in basis:
            for s2, g2 in basis:
                prod_s, prod_g = s1 @ s2, g1 @ g2
                tvec = (
                    [prod_g[row, c] for c in range(n) for row in range(n)]
                    + [prod_s[row, c] for row in range(r) for c in range(r)]
                )
                assert solve_affine(m, Matrix.column(tvec)) is not None


def test_is_indecomposable_examples():
    assert is_indecomposable(FramedTorsionSheaf(J2, Matrix.column([1, 0]))) is True
    assert is_indecomposable(FramedTorsionSheaf(DIAG01, Matrix.column([1, 0]))) is False
    assert is_indecomposable(FramedTorsionSheaf(Matrix.from_rows([[5]]), Matrix.column([1]))) is True


def test_is_indecomposable_inconclusive_on_nonsplit():
    rot = Matrix.from_rows([[0, -1], [1, 0]])  # char poly x^2 + 1, no rational roots
    fs = FramedTorsionSheaf(rot, Matrix.zeros(2, 1))
    assert is_indecomposable(fs) == INCONCLUSIVE


def test_is_indecomposable_nonsplit_local_is_decisive():
    # cyclic framing over an irreducible characteristic polynomial: End is a
    # field only when the quotient is trivial; for i = e1 the commutant acts
    # freely and dim(End/rad) = 1, so the answer stays decisive.
    rot = Matrix.from_rows([[0, -1], [1, 0]])
    fs = FramedTorsionSheaf(rot, Matrix.column([1, 0]))
    assert is_indecomposable(fs) is True


def test_is_indecomposable_rejects_float():
    field = complex_field()
    fs = FramedTorsionSheaf(Matrix.identity(1, field), Matrix.from_rows([[complex(1)]], field))
    with pytest.raises(ValueError):
        is_indecomposable(fs)


def test_cm_support_check_examples(flagship):
    fs = FramedTorsionSheaf(flagship.X, flagship.i)
    rep = cm_support_check(fs)
    assert rep.in_support and rep.fiber_dim is not None
    rep = cm_support_check(FramedTorsionSheaf(Matrix.identity(2), Matrix.column([1, 0])))
    assert not rep.in_support and rep.fiber_dim is None
    rep = cm_support_check(FramedTorsionSheaf(J2, Matrix.column([1, 0])))
    assert rep.in_support


def test_support_and_indecomposable_conjugation_invariant():
    rng = random.Random(97)
    cases = [
        (J2, Matrix.column([1, 0])),
        (DIAG01, Matrix.column([1, 1])),
        (DIAG01, Matrix.column([1, 0])),
    ]
    for X, i in cases:
        base_ind = is_indecomposable(FramedTorsionSheaf(X, i))
        base_sup = cm_support_check(FramedTorsionSheaf(X, i)).in_support
        for _ in range(5):
            g = rand_invertible(rng, 2)
            fs = FramedTorsionSheaf(g @ X @ g.inverse(), g @ i)
            assert is_indecomposable(fs) == base_ind
            assert cm_support_check(fs).in_support == base_sup


def test_framing_and_indecomposability_are_independent_probes():
    # no implication in either direction is asserted; both must simply run
    rng = random.Random(109)
    seen = set()
    for _ in range(20):
        n = rng.randint(1, 3)
        X = Matrix.from_rows([[Fraction(rng.randint(-1, 1)) for _ in range(n)] for _ in range(n)])
        i = Matrix.column([Fraction(rng.randint(-1, 1)) for _ in range(n)])
        fs = FramedTorsionSheaf(X, i)
        seen.add((framing_surjective(fs), is_indecomposable(fs) is True))
    assert len(seen) >= 2  # both answers actually vary across the sample


def test_support_cross_validation_n1_exhaustive():
    for x in (-1, 0, 1):
        for iv in (-1, 0, 1):
            fs = FramedTorsionSheaf(Matrix.from_rows([[x]]), Matrix.column([iv]))
            assert cm_support_check(fs).in_support == (is_indecomposable(fs) is True)


def test_support_cross_validation_n3_randomized_split():
    # split spectra by construction: X conjugate to an integer upper
    # triangular matrix; the support claim must agree with locality of End
    rng = random.Random(127)
    agreements = 0
    for _ in range(40):
        tri = [[Fraction(rng.randint(-2, 2)) if c >= r else Fraction(0) for c in range(3)] for r in range(3)]
        g = rand_invertible(rng, 3)
        X = g @ Matrix.from_rows(tri) @ g.inverse()
        i = Matrix.column([Fraction(rng.randint(-1, 1)) for _ in range(3)])
        fs = FramedTorsionSheaf(X, i)
        indec = is_indecomposable(fs)
        assert indec in (True, False)
        assert cm_support_check(fs).in_support == indec
        agreements += 1
    assert agreements == 40


def test_support_factors_are_monic():
    fs = FramedTorsionSheaf(
        Matrix.from_rows([[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 3)]]),
        Matrix.column([1, 1]),
    )
    factors = support(fs)
    assert all(coeffs[-1] == 1 for coeffs, _ in factors)
    assert {factor_str(c) for c, _ in factors} == {"x - 1/2", "x - 1/3"}


_FRACTIONS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
# ascending coefficients of x^2 - 2, x^2 + 1 and x^3 - 2, each irreducible over Q
_IRREDUCIBLE = [(-2, 0, 1), (1, 0, 1), (-2, 0, 0, 1)]


def _companion(coeffs) -> list[list]:
    """The companion matrix of the monic polynomial with ascending ``coeffs``: ones below the diagonal and the
    negated lower coefficients in the last column."""
    d = len(coeffs) - 1
    return [[1 if k == l + 1 else -coeffs[k] if l == d - 1 else 0 for l in range(d)] for k in range(d)]


def _permuted(rows: list[list], perm: list[int]) -> list[list]:
    """P T P^T for the permutation matrix P that sends index k to perm[k]."""
    return [[rows[perm[k]][perm[l]] for l in range(len(rows))] for k in range(len(rows))]


@st.composite
def _block_triangular(draw) -> list[list]:
    """Block upper triangular X whose diagonal blocks are companions of x^2 - 2, x^2 + 1, x^3 - 2 or 1 x 1
    blocks, repeats allowed, with arbitrary entries above the blocks."""
    blocks = draw(st.lists(st.one_of(st.sampled_from(_IRREDUCIBLE).map(_companion), _FRACTIONS.map(lambda c: [[c]])),
                           min_size=1, max_size=4))
    n = sum(len(b) for b in blocks)
    rows, start = [[Fraction(0)] * n for _ in range(n)], 0
    for b in blocks:
        for k, row in enumerate(b):
            rows[start + k][start:start + len(b)] = map(Fraction, row)
            rows[start + k][start + len(b):] = draw(st.lists(_FRACTIONS, min_size=n - start - len(b),
                                                             max_size=n - start - len(b)))
        start += len(b)
    return rows


@st.composite
def _structured_x(draw) -> Matrix:
    """Rational X of every shape the support splits: diagonal, scalar, upper and lower triangular, permuted
    triangular, block triangular (permuted or not) and dense conjugated."""
    kind = draw(st.sampled_from(["diagonal", "scalar", "upper", "lower", "permuted", "blocks", "dense"]))
    n = draw(st.integers(1, 6))
    if kind in ("diagonal", "scalar"):
        diag = draw(st.lists(_FRACTIONS, min_size=n, max_size=n)) if kind == "diagonal" else [draw(_FRACTIONS)] * n
        rows = [[diag[k] if k == l else Fraction(0) for l in range(n)] for k in range(n)]
    elif kind in ("upper", "lower", "permuted"):
        full = [draw(st.lists(_FRACTIONS, min_size=n, max_size=n)) for _ in range(n)]
        rows = [[full[k][l] if l >= k else Fraction(0) for l in range(n)] for k in range(n)]
        if kind == "lower":
            rows = [list(col) for col in zip(*rows)]
        elif kind == "permuted":
            rows = _permuted(rows, draw(st.permutations(range(n))))
    else:
        rows = draw(_block_triangular())
        if kind == "blocks" and draw(st.booleans()):
            rows = _permuted(rows, draw(st.permutations(range(len(rows)))))
    X = Matrix.from_rows(rows)
    if kind == "dense":
        g = rand_invertible(random.Random(draw(st.integers(0, 10**6))), X.rows)
        X = g @ X @ g.inverse()
    return X


def _factored_char_poly(X: Matrix) -> list:
    """The support as it was computed before the split into diagonal blocks: char_poly(X) factored whole."""
    from cmkit.factor import factor_rational

    return sorted(factor_rational(char_poly(X)), key=lambda t: (len(t[0]), t[0]))


@settings(max_examples=300, deadline=None)
@given(_structured_x())
def test_support_by_diagonal_blocks_matches_factoring_the_whole_char_poly(X):
    got = support(FramedTorsionSheaf(X, Matrix.column([1] * X.rows)))
    assert got == _factored_char_poly(X)
    assert all(type(c) is Fraction for coeffs, _ in got for c in coeffs)


def _blocks_of(rows) -> list[list[int]]:
    from cmkit.moduli import _diagonal_blocks

    X = Matrix.from_rows(rows)
    return _diagonal_blocks(X._integer_form()[0], X.rows)


def test_diagonal_blocks_of_jordan_cycle_and_permuted_triangular_matrices():
    n = 5
    jordan = [[3 if k == l else 1 if l == k + 1 else 0 for l in range(n)] for k in range(n)]
    assert _blocks_of(jordan) == [[k] for k in range(n)]
    assert _blocks_of([[0, 1], [1, 0]]) == [[0, 1]]
    upper = [[k + l + 1 if l >= k else 0 for l in range(n)] for k in range(n)]
    assert _blocks_of(_permuted(upper, [3, 0, 4, 1, 2])) == [[k] for k in range(n)]
    # companion(x^2 - 2) twice and [3], coupled above the blocks; then with the indices permuted
    golden = [[0, 2, 1, 0, 3], [1, 0, 0, -1, 0], [0, 0, 0, 2, 1], [0, 0, 1, 0, 0], [0, 0, 0, 0, 3]]
    assert _blocks_of(golden) == [[0, 1], [2, 3], [4]]
    assert _blocks_of(_permuted(golden, [4, 2, 0, 3, 1])) == [[0], [1, 3], [2, 4]]
    assert _blocks_of([[1, 2, 0], [0, 1, 2], [2, 0, 1]]) == [[0, 1, 2]]


def test_support_runs_char_poly_on_the_larger_blocks_only(monkeypatch):
    from cmkit import moduli

    calls = []
    monkeypatch.setattr(moduli, "char_poly", lambda a: calls.append(a) or char_poly(a))
    triangular = FramedTorsionSheaf(Matrix.from_rows([[1, 0, 0], [2, 3, 0], [-1, 5, 1]]), Matrix.column([1, 0, 1]))
    assert support(triangular) == [((Fraction(-3), Fraction(1)), 1), ((Fraction(-1), Fraction(1)), 2)]
    assert calls == []
    dense = FramedTorsionSheaf(Matrix.from_rows([[1, 2, 0], [0, 1, 2], [2, 0, 1]]), Matrix.column([1, 0, 0]))
    support(dense)
    assert len(calls) == 1 and calls[0] is dense.X
    mixed = FramedTorsionSheaf(Matrix.from_rows([[0, 2, 7], [1, 0, 0], [0, 0, 3]]), Matrix.column([1, 0, 0]))
    assert support(mixed) == [((Fraction(-3), Fraction(1)), 1), ((Fraction(-2), Fraction(0), Fraction(1)), 1)]
    assert calls[1] == Matrix.from_rows([[0, 2], [1, 0]])


def _probed_end_system(fs: FramedTorsionSheaf) -> Matrix:
    """Reference oracle: the End operator (g, s) |-> (g X - X g, g i - i s), applied to every unit (g, s)."""
    n, r, field = fs.n, fs.r, fs.field
    g_units = []
    for col in range(n):
        for row in range(n):
            g = [[field.zero] * n for _ in range(n)]
            g[row][col] = field.one
            g_units.append((Matrix.from_rows(g, field), Matrix.zeros(r, r, field)))
    s_units = []
    for row in range(r):
        for col in range(r):
            s = [[field.zero] * r for _ in range(r)]
            s[row][col] = field.one
            s_units.append((Matrix.zeros(n, n, field), Matrix.from_rows(s, field)))
    ncols = len(g_units) + len(s_units)
    neqs = n * n + n * r
    flat = [field.zero] * (neqs * ncols)
    for cidx, (g, s) in enumerate(g_units + s_units):
        comm = g @ fs.X - fs.X @ g
        frame = g @ fs.i - fs.i @ s
        for a in range(n):
            for b in range(n):
                flat[(a * n + b) * ncols + cidx] = comm[a, b]
        for a in range(n):
            for b in range(r):
                flat[(n * n + a * r + b) * ncols + cidx] = frame[a, b]
    return Matrix(neqs, ncols, tuple(flat), field)


def _assert_end_rows_match_probing(fs: FramedTorsionSheaf) -> None:
    """``_end_rows(fs)`` against the probed system, row by row in row-major order: in the rational field its
    commutator rows times d_X and its framing rows times d_i, as integers; in the complex field entry for
    entry by repr."""
    from cmkit.moduli import _end_rows

    n, rows, probed = fs.n, _end_rows(fs), _probed_end_system(fs)
    if fs.field.is_rational:
        scales = [fs.X._integer_form()[1]] * (n * n) + [fs.i._integer_form()[1]] * (n * fs.r)
        scaled = [[x * d for x in probed.row(k)] for k, d in enumerate(scales)]
        assert rows == scaled
        assert all(type(x) is int for row in rows for x in row)
    else:
        assert [list(map(repr, row)) for row in rows] == [list(map(repr, probed.row(k))) for k in range(probed.rows)]


@pytest.mark.parametrize("field_name", ["rational", "complex"])
@pytest.mark.parametrize("conjugated", [False, True])
@pytest.mark.parametrize("r", [1, 2])
def test_end_system_matches_unit_probing(field_name, conjugated, r):
    rng = random.Random(2000 * r + 10 * conjugated + len(field_name))
    n = 4
    # A repeated eigenvalue keeps the commutant larger than the diagonal one.
    X = Matrix.from_rows([[[1, 1, 2, -3][k] if k == l else 0 for l in range(n)] for k in range(n)])
    if conjugated:
        g = rand_invertible(rng, n)
        X = g @ X @ g.inverse()
    i = rand_matrix(rng, n, r)
    if field_name == "complex":
        field = complex_field(1e-9)
        X = Matrix.from_rows(X.to_rows(), field)
        i = Matrix.from_rows([[v * (1 - 2j) for v in row] for row in i.to_rows()], field)
    _assert_end_rows_match_probing(FramedTorsionSheaf(X, i))


@st.composite
def _end_row_sheaves(draw) -> FramedTorsionSheaf:
    """Sheaves with n <= 5, r <= 3 and X scalar, diagonal with repeated entries or conjugated dense, in either
    field; the framing is zero, or has entries with denominators."""
    n, r = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["scalar", "repeated", "dense"]))
    values = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    if kind == "scalar":
        diagonal = [draw(values)] * n
    else:
        diagonal = draw(st.lists(st.sampled_from([draw(values), draw(values)]), min_size=n, max_size=n))
    X = Matrix.from_rows([[diagonal[k] if k == l else 0 for l in range(n)] for k in range(n)])
    if kind == "dense":
        g = rand_invertible(random.Random(draw(st.integers(0, 10**6))), n)
        X = g @ X @ g.inverse()
    if draw(st.booleans()):
        i = Matrix.zeros(n, r)
    else:
        i = Matrix.from_rows([[draw(values) for _ in range(r)] for _ in range(n)])
    if draw(st.booleans()):
        field = complex_field()
        scale = draw(st.sampled_from([1, 1j, 1 - 2j]))
        X = Matrix.from_rows([[complex(v) * scale for v in row] for row in X.to_rows()], field)
        i = Matrix.from_rows([[complex(v) for v in row] for row in i.to_rows()], field)
    return FramedTorsionSheaf(X, i)


@settings(max_examples=150, deadline=None)
@given(_end_row_sheaves())
def test_end_rows_match_unit_probing(fs):
    _assert_end_rows_match_probing(fs)


@pytest.mark.parametrize("make", [lambda: _scalar_sheaf(4, 3), lambda: _nonsplit_sheaf(),
                                  lambda: FramedTorsionSheaf(DIAG01, Matrix.from_rows([[1, Fraction(1, 3)], [0, 0]]))],
                         ids=["scalar-n4", "nonsplit", "diagonal-r2"])
def test_rational_end_block_builds_no_fraction_system(make, monkeypatch):
    """``_numerators`` runs on the entries of X and i at most, never on a system of the End operator."""
    from cmkit import linalg
    from cmkit.moduli import _end_block

    sizes = []
    numerators = linalg._numerators
    monkeypatch.setattr(linalg, "_numerators", lambda entries: sizes.append(len(entries)) or numerators(entries))
    fs = make()
    block = _end_block(fs)
    assert block.rows > 1 and sizes and max(sizes) <= max(fs.n * fs.n, fs.n * fs.r)


def _end_coords(supports: list[list[tuple[int, Fraction]]], target: list) -> list:
    """Reference oracle: coordinates of ``target`` in a kernel basis given by each vector's nonzero (index, entry).

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
    """Reference oracle: trace form tr(L_a L_b) of the regular representation L of End.

    The product table holds the coordinates of each e_a e_b.  Since L is a
    representation, tr(L_a L_b) = tr(L_{e_a e_b}) = sum_c (e_a e_b)_c tr(L_c),
    and tr(L_c) is the sum of the coordinates (e_c e_t)_t.
    """
    from cmkit.linalg import kernel_basis, unvec, vec

    kern = kernel_basis(_probed_end_system(fs))
    basis = [unvec(v, fs.n, fs.r, fs.r) for v in kern]
    supports = [[(t, x) for t, x in enumerate(v.entries) if x != 0] for v in kern]
    table = [[_end_coords(supports, vec(g_a @ g_b, s_a @ s_b)) for g_b, s_b in basis] for g_a, s_a in basis]
    traces = [sum(row[t][t] for t in range(len(basis))) for row in table]
    return Matrix.from_rows(
        [[sum(x * tr for x, tr in zip(coords, traces) if x) for coords in row] for row in table], fs.field
    )


def test_end_coords_reject_vector_outside_span():
    from cmkit.linalg import kernel_basis, vec

    fs = FramedTorsionSheaf(DIAG01, Matrix.column([1, 0]))
    supports = [[(t, x) for t, x in enumerate(v.entries) if x != 0] for v in kernel_basis(_probed_end_system(fs))]
    # The idempotent (0, diag(0, 1)) lies in End; J2 with s = 0 does not commute with X.
    inside = vec(Matrix.from_rows([[0, 0], [0, 1]]), Matrix.zeros(1, 1))
    assert len(_end_coords(supports, inside)) == len(supports) == 2
    with pytest.raises(AssertionError, match="escaped the algebra"):
        _end_coords(supports, vec(J2, Matrix.zeros(1, 1)))


def _left_matrix_trace_form(fs: FramedTorsionSheaf) -> Matrix:
    """Reference oracle: tr(L_a L_b) from the left-multiplication matrices L_a of End."""
    from cmkit.linalg import kernel_basis, unvec, vec

    kern = kernel_basis(_probed_end_system(fs))
    m = len(kern)
    basis = [unvec(v, fs.n, fs.r, fs.r) for v in kern]
    supports = [[(t, x) for t, x in enumerate(v.entries) if x != 0] for v in kern]
    left = []
    for g_a, s_a in basis:
        col_list = [_end_coords(supports, vec(g_a @ g_b, s_a @ s_b)) for g_b, s_b in basis]
        left.append(Matrix.from_rows([[col_list[b][t] for b in range(m)] for t in range(m)]))
    return Matrix.from_rows([[(left[a] @ left[b]).trace() for b in range(m)] for a in range(m)])


def _scalar_sheaf(n: int, c: int) -> FramedTorsionSheaf:
    i = Matrix.column([Fraction(k + 1, 2) for k in range(n)])
    return FramedTorsionSheaf(Matrix.from_rows([[c if k == l else 0 for l in range(n)] for k in range(n)]), i)


def _diagonal_cyclic_sheaf(n: int) -> FramedTorsionSheaf:
    X = Matrix.from_rows([[Fraction(3 * k - 4, k + 1) if k == l else 0 for l in range(n)] for k in range(n)])
    return FramedTorsionSheaf(X, Matrix.column([Fraction(-1) ** k * (k + 2) for k in range(n)]))


def _nonsplit_sheaf() -> FramedTorsionSheaf:
    # diag(rotation block, 3) framed on the rational line: End = Q(i) x Q.
    X = Matrix.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 3]])
    return FramedTorsionSheaf(X, Matrix.column([0, 0, 1]))


@pytest.mark.parametrize(
    "fs, answer",
    [
        (_scalar_sheaf(3, 2), False),
        (_scalar_sheaf(4, -1), False),
        (_diagonal_cyclic_sheaf(3), True),
        (_diagonal_cyclic_sheaf(5), True),
        (_nonsplit_sheaf(), INCONCLUSIVE),
    ],
    ids=["scalar-n3", "scalar-n4", "diagonal-cyclic-n3", "diagonal-cyclic-n5", "nonsplit"],
)
def test_trace_form_matches_left_matrix_oracle(fs, answer):
    assert _trace_form(fs) == _left_matrix_trace_form(fs)
    assert is_indecomposable(fs) == answer


@st.composite
def _sheaves(draw, field_name: str) -> FramedTorsionSheaf:
    """Sheaves with n <= 5, r <= 3 and X scalar, Jordan, rotation-block, random or sparse."""
    n, r = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["scalar", "jordan", "rotation", "random", "sparse"]))
    small = st.integers(-2, 2)
    X = [[0] * n for _ in range(n)]
    if kind == "scalar":
        c = draw(small)
        for k in range(n):
            X[k][k] = c
    elif kind == "jordan":
        # few distinct eigenvalues, so chains of equal ones are common
        for k in range(n):
            X[k][k] = draw(st.integers(0, 1))
            if k + 1 < n and draw(st.booleans()):
                X[k][k + 1] = 1
    elif kind == "rotation":
        for k in range(0, n - 1, 2):
            a, b = draw(small), draw(st.integers(1, 2))
            X[k][k], X[k][k + 1], X[k + 1][k], X[k + 1][k + 1] = a, -b, b, a
        if n % 2:
            X[n - 1][n - 1] = draw(small)
    else:
        entries = small if kind == "random" else st.sampled_from([0, 0, 0, 0, 1, -1, 2])
        X = [[draw(entries) for _ in range(n)] for _ in range(n)]
    i = [[draw(st.sampled_from([0, 0, 1, -1, 2])) for _ in range(r)] for _ in range(n)]
    if draw(st.booleans()):
        # conjugate by a unit upper triangular integer u: u X u^-1, u i
        u = Matrix.from_rows([[1 if k == l else draw(st.integers(-1, 1)) if l > k else 0 for l in range(n)]
                              for k in range(n)])
        X, i = (u @ Matrix.from_rows(X) @ u.inverse()).to_rows(), (u @ Matrix.from_rows(i)).to_rows()
    if field_name == "complex":
        field = complex_field()
        scale = draw(st.sampled_from([1, 1j, 1 - 2j]))
        X = Matrix.from_rows([[complex(v) * scale for v in row] for row in X], field)
        return FramedTorsionSheaf(X, Matrix.from_rows([[complex(v) for v in row] for row in i], field))
    return FramedTorsionSheaf(Matrix.from_rows(X), Matrix.from_rows(i))


@pytest.mark.parametrize("field_name", ["rational", "complex"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cm_support_by_duality_matches_fiber_solve(field_name, data):
    fs = data.draw(_sheaves(field_name))
    sol = solve_cm_fiber(fs)
    expected = SupportReport(False, None) if sol is None else SupportReport(True, sol.dimension)
    assert cm_support_check(fs) == expected


@settings(max_examples=150, deadline=None)
@given(_sheaves("rational"))
def test_faithful_trace_form_rank_matches_regular(fs):
    from cmkit.moduli import _end_block, _faithful_trace_form

    block = _end_block(fs)
    form, d = _faithful_trace_form(fs, block), block._integer_form()[1]
    ends = endomorphisms(fs)
    # the rows are the form over the block's d, times d^2
    assert [[Fraction(x, d * d) for x in row] for row in form] == [
        [(g_a @ g_b).trace() + (s_a @ s_b).trace() for s_b, g_b in ends] for s_a, g_a in ends]
    assert rank(Matrix.from_rows(form)) == rank(_trace_form(fs))


def _dense_r2_sheaf() -> FramedTorsionSheaf:
    # g diag(1, 1, 2) g^-1 framed by g [[1, 0], [0, 1], [1, 1]]: dense entries and End of dimension 3
    g = rand_invertible(random.Random(561), 3)
    X = g @ Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 2]]) @ g.inverse()
    return FramedTorsionSheaf(X, g @ Matrix.from_rows([[1, 0], [0, 1], [1, 1]]))


@pytest.mark.parametrize("make, in_support", [
    (lambda: _scalar_sheaf(4, 3), False),
    (_dense_r2_sheaf, True),
    (lambda: FramedTorsionSheaf(Matrix.from_rows([[1, 1], [0, 1]], complex_field()),
                                Matrix.from_rows([[0, 1], [1j, 0]], complex_field())), True),
], ids=["rational-scalar", "rational-dense-r2", "complex-r2"])
def test_end_block_readers_solve_no_matrix_system(make, in_support, monkeypatch):
    """After ``_end_block``, the support check and the trace form read its rows: no solver and no ``@``."""
    from cmkit import linalg, moduli

    fs = make()
    block = moduli._end_block(fs)
    expected = (cm_support_check(fs, block), is_indecomposable(fs, ends=block) if fs.field.is_rational else None)
    assert block.rows > 1 and expected[0].in_support is in_support

    def refuse(*args):
        raise AssertionError("a reader of the End block built a Matrix system")

    for owner, attr in [(moduli, "solve_affine"), (moduli, "rank"), (linalg.Matrix, "__matmul__")]:
        monkeypatch.setattr(owner, attr, refuse)
    got = (cm_support_check(fs, block), is_indecomposable(fs, ends=block) if fs.field.is_rational else None)
    assert got == expected


def _direct_end_basis(fs: FramedTorsionSheaf) -> list[tuple[Matrix, Matrix]]:
    """Reference oracle: the End basis read from the kernel of the End system, as (s, g) pairs."""
    from cmkit.linalg import kernel_basis, unvec

    return [(s, g) for g, s in (unvec(v, fs.n, fs.r, fs.r) for v in kernel_basis(_probed_end_system(fs)))]


@st.composite
def _rank_one_sheaves(draw) -> FramedTorsionSheaf:
    """Rational rank-one sheaves with n <= 6, cyclic (sampled, conjugated, random) or not."""
    from cmkit import conjugate, sample_cm

    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["sampled", "conjugated", "random", "repeated", "zero-coordinate", "zero"]))
    seed = draw(st.integers(0, 10**6))
    rng = random.Random(seed)
    if kind in ("sampled", "conjugated"):
        q = sample_cm(n, seed)
        if kind == "conjugated":
            q = conjugate(q, rand_invertible(rng, n))
        return FramedTorsionSheaf(q.X, q.i)
    if kind == "random":
        return FramedTorsionSheaf(rand_matrix(rng, n, n), rand_matrix(rng, n, 1))
    # Diagonal X: a repeated eigenvalue, or a framing with a zero coordinate, is not cyclic.
    eigen = [Fraction(k - 2, k % 3 + 1) for k in range(n)]
    i = rand_matrix(rng, n, 1).to_rows()
    if kind == "repeated" and n > 1:
        eigen[draw(st.integers(1, n - 1))] = eigen[0]
    elif kind == "zero-coordinate":
        i[draw(st.integers(0, n - 1))] = [0]
    elif kind == "zero":
        i = [[0]] * n
    X = Matrix.from_rows([[eigen[k] if k == l else 0 for l in range(n)] for k in range(n)])
    if draw(st.booleans()):
        g = rand_invertible(rng, n)
        return FramedTorsionSheaf(g @ X @ g.inverse(), g @ Matrix.from_rows(i))
    return FramedTorsionSheaf(X, Matrix.from_rows(i))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_rank_one_sheaves(), _sheaves("rational").filter(lambda fs: fs.r > 1), _sheaves("complex")))
def test_endomorphisms_match_the_end_system_basis(fs):
    from cmkit.linalg import vec
    from cmkit.moduli import _end_block

    direct = _direct_end_basis(fs)
    assert endomorphisms(fs) == direct
    if fs.r == 1 and fs.field.is_rational:
        assert (len(direct) == 1) == framing_surjective(fs)
    block = _end_block(fs, framing_surjective(fs))
    assert [list(block.row(a)) for a in range(block.rows)] == [vec(g, s) for s, g in direct]
    assert cm_support_check(fs, block) == cm_support_check(fs)


def test_endomorphisms_of_cyclic_rank_one_build_no_end_system(monkeypatch):
    from cmkit import moduli

    built = []
    end_rows = moduli._end_rows
    monkeypatch.setattr(moduli, "_end_rows", lambda fs: built.append(fs) or end_rows(fs))
    cyclic = _diagonal_cyclic_sheaf(4)
    assert endomorphisms(cyclic) == [(Matrix.identity(1), Matrix.identity(4))] and built == []
    assert moduli._end_block(cyclic, True) == moduli._end_block(cyclic) and built == []
    # the direct path: a framing that is not surjective, rank two, the complex field
    field = complex_field()
    others = [
        _scalar_sheaf(3, 2),
        FramedTorsionSheaf(DIAG01, Matrix.from_rows([[1, 0], [0, 1]])),
        FramedTorsionSheaf(Matrix.from_rows(DIAG01.to_rows(), field), Matrix.column([1, 1], field)),
    ]
    assert [len(endomorphisms(fs)) for fs in others] == [7, 2, 1]
    assert built == others
